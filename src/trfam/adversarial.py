"""Worst-case one-dimensional instances on which the method is provably slow.

The generator lays down knot sequences (gradients shrinking toward the
target tolerance, model Hessians growing like k^p, unit-model Newton
steps), then realizes them as a C^1 function by piecewise cubic Hermite
interpolation with quadratic tails. Running the driver on the result must
take exactly k_eps iterations, every one of them with agreement ratio 2;
the verifier checks that, bit for bit where the construction allows it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import BoundInputs
from .driver import STATUSES, SolveReport, TrParams, VERY_SUCCESSFUL, solve, theoretical_a_min
from .hessians import ScriptedModel, _doubles
from .problems import Problem

# the most knots an instance may have: a larger k_eps would let generate ask
# for more memory than any host has
K_EPS_CAP = 10**8

RHO_TOL = 1e-9
ROUNDING_U = 2.0**-53  # of float64; verify_sharpness scales it into its rho slack
FINAL_GRAD_TOL = 1e-12


@dataclass(frozen=True)
class AdversarialSpec:
    """Target tolerance, Hessian growth exponent, and radius parameters.

    ``c`` must be finite; it matters only when p = 1, and must then be
    positive (c = 0 would collapse the instance to a single knot with a
    degenerate f_0). ``TrParams`` checks alpha and beta; alpha > -1022
    keeps delta0 = 2^(2 - alpha) a float.
    """

    eps: float
    p: float
    c: float = 1.0
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.p == 1.0 and not self.c > 0.0:
            raise ValueError("p = 1 requires c > 0")
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")
        TrParams(alpha=self.alpha, beta=self.beta)  # raises for a non-member of the family
        if not self.alpha > -1022.0:
            raise ValueError("need alpha > -1022, or delta0 = 2^(2 - alpha) overflows")


def k_epsilon(spec: AdversarialSpec) -> int:
    """floor(eps^(-2/(1-p))) for p < 1, floor(exp(c eps^-2)) for p = 1."""
    if spec.p == 1.0:
        try:
            log_k = spec.c * spec.eps**-2
        except OverflowError:  # eps below about 1e-154
            log_k = math.inf
        if log_k > math.log(K_EPS_CAP):
            raise ValueError(
                f"k_eps = exp({log_k:.3g}) exceeds the cap {K_EPS_CAP:g}; use a larger eps"
            )
        k = int(math.floor(math.exp(log_k)))
    else:
        # the power overflows a float long before it reaches the cap, so
        # reject in the log domain first; the margin of 1 (a factor e)
        # leaves every value within the cap to the exact test below, so an
        # accepted k_eps is what it was
        log_value = -2.0 / (1.0 - spec.p) * math.log(spec.eps)
        if log_value > math.log(K_EPS_CAP) + 1.0:
            raise ValueError(
                f"k_eps = exp({log_value:.3g}) exceeds the cap {K_EPS_CAP:g}; use a larger eps"
            )
        value = spec.eps ** (-2.0 / (1.0 - spec.p))
        if value > K_EPS_CAP:
            raise ValueError(f"k_eps = {value:.3g} exceeds the cap {K_EPS_CAP:g}; use a larger eps")
        k = int(math.floor(value))
    return k


@dataclass
class AdversarialInstance:
    k_eps: int
    knots_x: np.ndarray
    f_vals: np.ndarray
    g_vals: np.ndarray
    B_vals: np.ndarray
    delta0: float
    kappa_f: float
    spec: AdversarialSpec


def generate(spec: AdversarialSpec) -> AdversarialInstance:
    """Build the knot sequences.

    g_k = -eps (1 + (k_eps - k)/k_eps), B_0 = 1 and B_k = k^p, steps
    s_k = -g_k / B_k, positions accumulate from x_0 = 0, and f follows the
    recurrence f_{k+1} = f_k + g_k s_k from the prescribed f_0. Both
    sums are ``np.add.accumulate``, which adds strictly in order, so a
    driver walking the knots in float64 reproduces them exactly.
    """
    keps = k_epsilon(spec)
    ks = np.arange(keps + 1, dtype=float)
    omega = (keps - ks) / keps
    g = -spec.eps * (1.0 + omega)
    B = np.empty(keps + 1)
    B[0] = 1.0
    B[1:] = ks[1:] ** spec.p
    s = -(g[:-1] / B[:-1])
    if not np.all(s > 0):
        raise AssertionError("steps must be positive")

    x = np.empty(keps + 1)
    x[0] = 0.0
    x[1:] = s
    np.add.accumulate(x, out=x)

    f = np.empty(keps + 1)
    if spec.p == 1.0:
        f[0] = 8.0 * spec.eps**2 + 4.0 * spec.c
    else:
        f[0] = 8.0 * spec.eps**2 + 4.0 / (1.0 - spec.p)
    np.multiply(g[:-1], s, out=f[1:])
    np.add.accumulate(f, out=f)

    inst = AdversarialInstance(
        k_eps=keps,
        knots_x=x,
        f_vals=f,
        g_vals=g,
        B_vals=B,
        delta0=2.0 ** (2.0 - spec.alpha),
        kappa_f=max(float(f[0]), 2.0),
        spec=spec,
    )
    _check_instance(inst)
    return inst


def _check_instance(inst: AdversarialInstance) -> None:
    if not np.all(np.diff(inst.f_vals) < 0):
        raise AssertionError("f values must be strictly decreasing")
    if not (np.all(inst.f_vals >= 0) and np.all(inst.f_vals <= inst.f_vals[0])):
        raise AssertionError("f values must stay inside [0, f_0]")
    gabs = np.abs(inst.g_vals)
    if not (np.all(gabs[:-1] > inst.spec.eps) and gabs[-1] == inst.spec.eps):
        raise AssertionError("gradient magnitudes must exceed eps until the last knot")


def _cubic(h, d, g0, g1):
    """(c2, c3) of f(x0 + t h) = f0 + t (h g0 + t (c2 + t c3)) on a segment of width h,
    rise d and end slopes g0, g1: the same bits for Python floats and numpy blocks."""
    return 3.0 * d - h * (2.0 * g0 + g1), -2.0 * d + h * (g0 + g1)


class Interpolant1D:
    """C^1 realization of an instance: cubic Hermite segments between the
    knots plus quadratic tails of unit curvature on both sides.

    Evaluation at a knot returns the knot's stored value and slope, bit for
    bit and whatever the order of the calls: it reads them and forms no
    cubic. Strictly between two knots it forms that segment's cubic, a
    Horner form anchored at the segment's left knot; beyond an end knot, the
    tail anchored there. Only the knot data x, f and g are kept, once, as
    array('d'), 24 B per knot: a point evaluation reads Python floats from
    them, and the whole-instance bounds read numpy views of the same memory,
    ``BLOCK`` segments at a time. Widths and cubic coefficients are formed
    where they are read.

    A replay evaluates the knots in order, so a point evaluation first tries
    the knot after the last one it used and bisects only on a miss; every
    trial point of a replay is that knot, so each of its evaluations is an
    index read. For knots in increasing order, as ``generate`` makes them,
    the knot or the segment bisection finds is the only one that holds the
    point, so the values do not depend on the order of the calls.
    """

    TAIL_CURVATURE = 1.0  # positive, so the tails keep f bounded below
    # segments per block of the two whole-instance bounds: a block's arrays
    # take a few MiB, where whole arrays at k_eps = 8.9e6 (eps = 0.25, p = 1)
    # would set a replay's peak, and 136 blocks there cost next to nothing.
    # Min and max are exact in any order, so the bounds do not depend on it.
    BLOCK = 65_536

    def __init__(self, inst: AdversarialInstance):
        self._x, self._f, self._g = map(_doubles, (inst.knots_x, inst.f_vals, inst.g_vals))
        self._next = 0  # the knot a point evaluation tries first

    def __call__(self, xq: float) -> tuple[float, float]:
        """Return (f(x), f'(x)), and (nan, nan) at a NaN point."""
        x = float(xq)
        knots = self._x
        i = self._next
        if x != knots[i]:  # not the cursor's knot
            if knots[0] < x < knots[-1]:
                i = bisect_right(knots, x) - 1
                if x != knots[i]:  # strictly inside segment i
                    self._next = i + 1
                    h = knots[i + 1] - knots[i]
                    t = (x - knots[i]) / h
                    c2, c3 = _cubic(h, self._f[i + 1] - self._f[i], self._g[i], self._g[i + 1])
                    val = self._f[i] + t * (h * self._g[i] + t * (c2 + t * c3))
                    slope = self._g[i] + t * (2.0 * c2 + 3.0 * c3 * t) / h
                    return val, slope
            else:  # an end knot, a point beyond one, or NaN
                i = 0 if x <= knots[0] else len(knots) - 1
                dx = x - knots[i]
                if dx:  # on the tail of end knot i; NaN reads NaN there
                    tc = self.TAIL_CURVATURE
                    return self._f[i] + self._g[i] * dx + 0.5 * tc * dx * dx, self._g[i] + tc * dx
        self._next = i + 1 if x < knots[-1] else i  # the last knot keeps the cursor
        return self._f[i], self._g[i]

    def _blocks(self):
        """Widths, left-knot f and g, and c2, c3 of each ``BLOCK`` segments, in order."""
        knots = [np.frombuffer(a) for a in (self._x, self._f, self._g)]
        for lo in range(0, len(self._x) - 1, self.BLOCK):
            x, f, g = (v[lo : lo + self.BLOCK + 1] for v in knots)  # its segments' knots
            h, g0 = np.diff(x), g[:-1]
            yield (h, f[:-1], g0, *_cubic(h, np.diff(f), g0, g[1:]))

    def second_derivative_bound(self) -> float:
        """Exact sup of |f''|: per segment f'' is linear in x, so the
        maximum sits at an endpoint; the tails contribute the curvature."""
        bound = self.TAIL_CURVATURE
        for h, _, _, c2, c3 in self._blocks():
            h2 = h**2
            at0 = np.abs(2.0 * c2) / h2
            at1 = np.abs(2.0 * c2 + 6.0 * c3) / h2
            bound = max(bound, at0.max(), at1.max())
        return float(bound)

    def lower_bound(self) -> float:
        """Exact global infimum, from tail vertices, knot values and the
        interior critical points of every segment.

        Those points solve 3 c3 t^2 + 2 c2 t + h g0 = 0; the roots come
        from the cancellation-free form q = -(b + sign(b) sqrt(disc)) / 2,
        t = q/a and c/q. A vanishing leading coefficient, a zero slope or a
        negative discriminant yields inf or NaN roots, which the (0, 1)
        mask drops; the knot values cover the endpoints.
        """
        tc = self.TAIL_CURVATURE
        f, g = np.frombuffer(self._f), np.frombuffer(self._g)
        left = f[0] if g[0] <= 0 else f[0] - g[0] ** 2 / (2 * tc)
        right = f[-1] if g[-1] >= 0 else f[-1] - g[-1] ** 2 / (2 * tc)
        low = min(left, right, f.min())
        for h, fb, g0, c2, c3 in self._blocks():
            hg = h * g0
            a, b = 3.0 * c3, 2.0 * c2
            with np.errstate(divide="ignore", invalid="ignore"):
                q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * hg), b))
                roots = np.stack([q / a, hg / q])
            inside = (roots > 0.0) & (roots < 1.0)
            seg = np.nonzero(inside)[1]
            t = roots[inside]
            interior = fb[seg] + t * (hg[seg] + t * (c2[seg] + t * c3[seg]))
            low = min(low, interior.min(initial=np.inf))
        return float(low)

    def as_problem(self) -> Problem:
        """The instance as a 1-d ``Problem`` with f and f' only: the
        verifier drives it with a ``ScriptedModel``, not a Hessian. f and g
        take a float array and read its point with ``x.item(0)``, a Python
        float, without the numpy scalar ``float(x[0])`` builds."""
        # The driver asks for the gradient where it just asked for f, so f
        # keeps its point and slope for g. Equal points evaluate to the same
        # bits (a knot's are stored), so the point's value is the key; NaN
        # equals nothing and is evaluated afresh.
        x_f = slope_f = math.nan

        def f(x):
            nonlocal x_f, slope_f
            xq = x.item(0)
            val, slope_f = self(xq)
            x_f = xq
            return val

        def g(x):
            xq = x.item(0)
            return np.array([slope_f if xq == x_f else self(xq)[1]])

        return Problem(
            name="adversarial",
            dim=1,
            eval_f=f,
            eval_grad=g,
            x0=np.array([self._x[0]]),
        )


def build_interpolant(inst: AdversarialInstance) -> Interpolant1D:
    return Interpolant1D(inst)


@dataclass
class SharpnessReport:
    """The replay's checks and the instance facts its audit needs: f0 and
    delta0 as the instance sets them, and ``lipschitz`` (the exact sup |f''|)
    and ``f_low`` (the exact infimum) as the replayed interpolant's
    ``second_derivative_bound`` and ``lower_bound`` compute them."""

    spec: AdversarialSpec
    k_eps: int
    iterations: int
    all_very_successful: bool
    max_rho_error: float
    max_step_ratio: float
    steps_inside: bool
    strictly_inside: bool
    final_grad_abs: float
    final_grad_error: float
    f0: float
    delta0: float
    lipschitz: float
    f_low: float
    mismatches: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        """The spec's fields, the report's, ``passed`` and the first 20 mismatches."""
        out = {f.name: getattr(self.spec, f.name) for f in fields(self.spec)}
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "spec")
        out.update(passed=self.passed, mismatches=self.mismatches[:20])
        return out


def verify_sharpness(
    spec: AdversarialSpec, emit_function=None
) -> tuple[SharpnessReport, SolveReport]:
    """Run the driver on the generated instance and check the worst-case
    facts it was built to force: exactly k_eps iterations, agreement ratio
    2 at every iteration, every step inside the scaled radius, and a final
    gradient of magnitude eps. The driver runs with the default constants,
    the spec's alpha and beta, and the instance's delta0; the problem is
    1-d, so every step is the exact 1-d step.

    |rho_k - 2| may be RHO_TOL + 2 u max(|f_k|, |f_k+1|) / m_k, with u =
    2^-53, m_k the logged model decrease and f_k+1 the next logged f
    (``final_f`` at the end). ``generate`` stores f_k+1 = fl(f_k + g_k s_k),
    off by at most u |f_k+1|, and the driver's f_k - f_k+1 is exact
    (Sterbenz: each decrease is at most 4 eps^2 and f stays above it). As
    f_k - f_k+1 = 2 m_k exactly, rho_k carries about u |f_k+1| / m_k of
    rounding, past 1e-9 from k ~ 2e6 at p = 1; the factor 2 is a 2x margin
    over the largest ratio seen up to k_eps = 8.9e6, and RHO_TOL covers the
    few-ulp errors of g_k s_k and m_k.

    With ``emit_function``, a path, ``emit_function_csv`` writes the
    instance's interpolant there before the replay, so a caller that wants
    both builds the instance once. The report carries the interpolant's
    exact sup |f''| and infimum, so ``bound_inputs`` builds nothing more.
    """
    inst = generate(spec)
    k_eps, f0, delta0 = inst.k_eps, float(inst.f_vals[0]), inst.delta0
    interp = build_interpolant(inst)  # by name: perfbench/tracing.py patches it
    if emit_function is not None:
        emit_function_csv(interp, emit_function)
    problem = interp.as_problem()
    params = TrParams(alpha=spec.alpha, beta=spec.beta, delta0=delta0)
    model = ScriptedModel(inst.B_vals)
    del inst  # through the solve: the script, three scalars, the interpolant's knots
    # the bounds' blocks run while neither the instance nor the log is held
    lipschitz, f_low = interp.second_derivative_bound(), interp.lower_bound()
    report = solve(problem, params, model, eps=spec.eps, max_iter=k_eps + 10)
    # the checks read only the log: free the interpolant's data before
    # they allocate their per-iteration temporaries
    del problem, model, interp

    mism: list[dict] = []
    if report.iterations != k_eps:
        mism.append(
            {"check": "iteration_count", "expected": k_eps, "observed": report.iterations}
        )
    log = report.log
    f = np.abs(log.column("f"))
    with np.errstate(divide="ignore", invalid="ignore"):
        f_scale = np.maximum(f, np.append(f[1:], abs(report.final_f)))
        rho_tol = RHO_TOL + 2.0 * ROUNDING_U * f_scale / log.column("model_decrease")
        rho_err = np.abs(log.column("rho") - 2.0)
        ratio = log.column("snorm") / log.column("eff_radius")
    bad_rho, outside = ~(rho_err <= rho_tol), ~(ratio <= 1.0)
    for k in np.flatnonzero(bad_rho | outside).tolist():
        if bad_rho[k]:
            mism.append({"check": "rho", "k": k, "expected": 2.0, "observed": log.rho[k]})
        if outside[k]:
            mism.append(
                {"check": "step_inside", "k": k, "snorm": log.snorm[k],
                 "radius": log.eff_radius[k]}
            )
    # fmax skips NaN, as a running max(best, value) from 0.0 does
    max_rho_err = float(np.fmax.reduce(rho_err, initial=0.0))
    max_ratio = float(np.fmax.reduce(ratio, initial=0.0))
    all_vs = bool(np.all(log.column("status") == STATUSES.index(VERY_SUCCESSFUL)))
    final_err = abs(report.final_gnorm - spec.eps)
    if not final_err <= FINAL_GRAD_TOL:
        mism.append(
            {"check": "final_gradient", "expected": spec.eps, "observed": report.final_gnorm}
        )

    sharp = SharpnessReport(
        spec=spec,
        k_eps=k_eps,
        iterations=report.iterations,
        all_very_successful=all_vs,
        max_rho_error=max_rho_err,
        max_step_ratio=max_ratio,
        steps_inside=max_ratio <= 1.0,
        strictly_inside=max_ratio < 1.0,
        final_grad_abs=report.final_gnorm,
        final_grad_error=final_err,
        f0=f0,
        delta0=delta0,
        lipschitz=lipschitz,
        f_low=f_low,
        mismatches=mism,
    )
    return sharp, report


def bound_inputs(sharp: SharpnessReport, report: SolveReport) -> BoundInputs:
    """The audit inputs of ``report``, the replay ``verify_sharpness``
    returned with ``sharp``, all read off that replay: the spec, f0 and
    delta0, ``sharp.f_low`` (the interpolant's exact infimum), L =
    ``sharp.lipschitz`` (its exact sup |f''|), and a_min =
    ``theoretical_a_min`` of the run's first a_k. mu is 1:
    ``bounds.audit_run`` measures the run's own. No instance is rebuilt."""
    spec, L = sharp.spec, sharp.lipschitz
    params = TrParams(alpha=spec.alpha, beta=spec.beta, delta0=sharp.delta0)
    return BoundInputs(params, f0=sharp.f0, f_low=sharp.f_low,
                       a_min=theoretical_a_min(report.log.a_k[0], params, L), mu=1.0,
                       p=spec.p, eps=spec.eps, L=L)


def emit_function_csv(interp: Interpolant1D, path) -> None:
    """Figure-style dump: x, f, fprime at 2001 points over [x_0 - 1, x_last + 1]."""
    knots = interp._x
    with open(path, "w") as fh:
        fh.write("x,f,fprime\n")
        for x in np.linspace(knots[0] - 1.0, knots[-1] + 1.0, 2001):
            fh.write(",".join(f"{v:.17g}" for v in (x, *interp(x))) + "\n")

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
from dataclasses import dataclass, field

import numpy as np

from .driver import STATUSES, SolveReport, TrParams, VERY_SUCCESSFUL, solve
from .hessians import ScriptedModel, _doubles
from .problems import Problem

K_EPS_CAP = 10**8

RHO_TOL = 1e-9
ROUNDING_U = 2.0**-53  # of float64; verify_sharpness scales it into its rho slack
FINAL_GRAD_TOL = 1e-12


@dataclass(frozen=True)
class AdversarialSpec:
    """Target tolerance, Hessian growth exponent, and radius parameters.

    ``c`` only matters when p = 1; it must then be positive (c = 0 would
    collapse the instance to a single knot with a degenerate f_0).
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
        if not (self.alpha <= 1 and self.beta <= 1):  # NaN fails too
            raise ValueError("alpha and beta must be <= 1")


def k_epsilon(spec: AdversarialSpec, cap: int = K_EPS_CAP) -> int:
    """floor(eps^(-2/(1-p))) for p < 1, floor(exp(c eps^-2)) for p = 1."""
    if spec.p == 1.0:
        log_k = spec.c * spec.eps**-2
        if log_k > math.log(cap):
            raise ValueError(
                f"k_eps = exp({log_k:.3g}) exceeds the cap {cap:g}; use a larger eps"
            )
        k = int(math.floor(math.exp(log_k)))
    else:
        value = spec.eps ** (-2.0 / (1.0 - spec.p))
        if value > cap:
            raise ValueError(f"k_eps = {value:.3g} exceeds the cap {cap:g}; use a larger eps")
        k = int(math.floor(value))
    return k


@dataclass
class AdversarialInstance:
    k_eps: int
    knots_x: np.ndarray
    f_vals: np.ndarray
    g_vals: np.ndarray
    B_vals: np.ndarray
    s_vals: np.ndarray
    delta0: float
    kappa_f: float
    spec: AdversarialSpec


def generate(spec: AdversarialSpec, cap: int = K_EPS_CAP) -> AdversarialInstance:
    """Build the knot sequences.

    g_k = -eps (1 + (k_eps - k)/k_eps), B_0 = 1 and B_k = k^p, steps
    s_k = -g_k / B_k, positions accumulate from x_0 = 0, and f follows the
    recurrence f_{k+1} = f_k + g_k s_k from the prescribed f_0. Both
    sums are ``np.add.accumulate``, which adds strictly in order, so a
    driver walking the knots in float64 reproduces them exactly.
    """
    keps = k_epsilon(spec, cap)
    ks = np.arange(keps + 1, dtype=float)
    omega = (keps - ks) / keps
    g = -spec.eps * (1.0 + omega)
    B = np.empty(keps + 1)
    B[0] = 1.0
    B[1:] = ks[1:] ** spec.p
    s = -(g[:-1] / B[:-1])

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
        s_vals=s,
        delta0=2.0 ** (2.0 - spec.alpha),
        kappa_f=max(float(f[0]), 2.0),
        spec=spec,
    )
    _check_instance(inst)
    return inst


def _check_instance(inst: AdversarialInstance) -> None:
    if not np.all(inst.s_vals > 0):
        raise AssertionError("steps must be positive")
    if not np.all(np.diff(inst.f_vals) < 0):
        raise AssertionError("f values must be strictly decreasing")
    if not (np.all(inst.f_vals >= 0) and np.all(inst.f_vals <= inst.f_vals[0])):
        raise AssertionError("f values must stay inside [0, f_0]")
    gabs = np.abs(inst.g_vals)
    if not (np.all(gabs[:-1] > inst.spec.eps) and gabs[-1] == inst.spec.eps):
        raise AssertionError("gradient magnitudes must exceed eps until the last knot")


class Interpolant1D:
    """C^1 realization of an instance: cubic Hermite segments between the
    knots plus quadratic tails of unit curvature on both sides.

    Evaluation at a knot returns the stored value/slope exactly: the local
    Horner forms are anchored at the left endpoint of each segment and at
    the junction points of the tails. Knot and segment data are kept once,
    as array('d'): a point evaluation reads Python floats from them, and
    the whole-instance bounds read numpy views of the same memory.
    """

    TAIL_CURVATURE = 1.0  # positive, so the tails keep f bounded below

    def __init__(self, inst: AdversarialInstance):
        x, f, g = inst.knots_x, inst.f_vals, inst.g_vals
        h = np.diff(x)
        d = np.diff(f)
        # cubic f(x0 + t h) = f0 + t (h g0 + t (c2 + t c3)) on each segment
        self._x, self._f, self._g, self._h = _doubles(x), _doubles(f), _doubles(g), _doubles(h)
        self._c2 = _doubles(3.0 * d - h * (2.0 * g[:-1] + g[1:]))
        self._c3 = _doubles(-2.0 * d + h * (g[:-1] + g[1:]))

    def __call__(self, xq: float) -> tuple[float, float]:
        """Return (f(x), f'(x))."""
        x = float(xq)
        knots = self._x
        tc = self.TAIL_CURVATURE
        if x < knots[0]:
            dx = x - knots[0]
            return (
                self._f[0] + self._g[0] * dx + 0.5 * tc * dx * dx,
                self._g[0] + tc * dx,
            )
        if x >= knots[-1]:
            dx = x - knots[-1]
            return (
                self._f[-1] + self._g[-1] * dx + 0.5 * tc * dx * dx,
                self._g[-1] + tc * dx,
            )
        i = bisect_right(knots, x) - 1
        h = self._h[i]
        t = (x - knots[i]) / h
        c2, c3 = self._c2[i], self._c3[i]
        val = self._f[i] + t * (h * self._g[i] + t * (c2 + t * c3))
        slope = self._g[i] + t * (2.0 * c2 + 3.0 * c3 * t) / h
        return val, slope

    def second_derivative_bound(self) -> float:
        """Exact sup of |f''|: per segment f'' is linear in x, so the
        maximum sits at an endpoint; the tails contribute the curvature."""
        c2, c3 = np.frombuffer(self._c2), np.frombuffer(self._c3)
        h2 = np.frombuffer(self._h) ** 2
        at0 = np.abs(2.0 * c2) / h2
        at1 = np.abs(2.0 * c2 + 6.0 * c3) / h2
        return float(max(self.TAIL_CURVATURE, at0.max(), at1.max()))

    def lower_bound(self) -> float:
        """Exact global infimum, from tail vertices, knot values and the
        interior critical points of every segment at once.

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
        c2, c3 = np.frombuffer(self._c2), np.frombuffer(self._c3)
        hg = np.frombuffer(self._h) * g[:-1]
        a, b = 3.0 * c3, 2.0 * c2
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * hg), b))
            roots = np.stack([q / a, hg / q])
        inside = (roots > 0.0) & (roots < 1.0)
        seg = np.nonzero(inside)[1]
        t = roots[inside]
        interior = f[seg] + t * (hg[seg] + t * (c2[seg] + t * c3[seg]))
        return float(min(left, right, f.min(), interior.min(initial=np.inf)))

    def as_problem(self) -> Problem:
        # The driver asks for the gradient where it just asked for f, so
        # one evaluation serves both. A nonzero float equal to the key has
        # the key's bits; zero, whose sign == ignores, and NaN are always
        # evaluated afresh.
        last = [math.nan, None]  # x, (f(x), f'(x))

        def at(x):
            xq = float(x[0])
            if xq != last[0] or xq == 0.0:
                last[0], last[1] = xq, self(xq)
            return last[1]

        def f(x):
            return at(x)[0]

        def g(x):
            return np.array([at(x)[1]])

        def h(x):
            d = 1e-7
            _, gp = self(x[0] + d)
            _, gm = self(x[0] - d)
            return np.array([[(gp - gm) / (2 * d)]])

        return Problem(
            name="adversarial",
            dim=1,
            eval_f=f,
            eval_grad=g,
            x0=np.array([self._x[0]]),
            f_low_hint=self.lower_bound(),
            eval_hess=h,
        )

    def sample(self):
        """(x, f, f') arrays at 2001 uniform points over [x_0 - 1, x_last + 1]."""
        xs = np.linspace(self._x[0] - 1.0, self._x[-1] + 1.0, 2001)
        vals = np.array([self(x) for x in xs])
        return xs, vals[:, 0], vals[:, 1]


def build_interpolant(inst: AdversarialInstance) -> Interpolant1D:
    return Interpolant1D(inst)


@dataclass
class SharpnessReport:
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
    mismatches: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "eps": self.spec.eps,
            "p": self.spec.p,
            "c": self.spec.c,
            "alpha": self.spec.alpha,
            "beta": self.spec.beta,
            "k_eps": self.k_eps,
            "iterations": self.iterations,
            "all_very_successful": self.all_very_successful,
            "max_rho_error": self.max_rho_error,
            "max_step_ratio": self.max_step_ratio,
            "steps_inside": self.steps_inside,
            "strictly_inside": self.strictly_inside,
            "final_grad_abs": self.final_grad_abs,
            "final_grad_error": self.final_grad_error,
            "f0": self.f0,
            "delta0": self.delta0,
            "passed": self.passed,
            "mismatches": self.mismatches[:20],
        }


def verify_sharpness(
    spec: AdversarialSpec, cap: int = K_EPS_CAP
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
    """
    inst = generate(spec, cap)
    k_eps, f0, delta0 = inst.k_eps, float(inst.f_vals[0]), inst.delta0
    problem = build_interpolant(inst).as_problem()
    params = TrParams(alpha=spec.alpha, beta=spec.beta, delta0=delta0)
    model = ScriptedModel(inst.B_vals)
    del inst  # through the solve: the script, three scalars, the interpolant's knots
    report = solve(problem, params, model, eps=spec.eps, max_iter=k_eps + 10)
    # the checks read only the log: free the interpolant's data before
    # they allocate their per-iteration temporaries
    del problem, model

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
        mismatches=mism,
    )
    return sharp, report


def emit_function_csv(interp: Interpolant1D, path) -> None:
    """Figure-style dump: x, f, fprime on ``Interpolant1D.sample``'s grid."""
    xs, fs, gs = interp.sample()
    with open(path, "w") as fh:
        fh.write("x,f,fprime\n")
        for row in zip(xs, fs, gs):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

"""Trust-region subproblem machinery.

The subproblem minimizes the quadratic model m(s) = f + g's + s'Bs/2 over
the ball |s| <= R with the scaled radius R = |g|^alpha (1+|B|)^-beta Delta.
Steps come from a Steihaug-type truncated conjugate gradient whose first
iterate is the Cauchy point, so the fraction-of-Cauchy-decrease contract
holds by construction (Steihaug 1983; Conn, Gould and Toint 2000, 7.5.1).
Both step solvers take a ``HessianModel``: the CG path forms every product
with its ``apply``, and the 1-d step reads the curvature off its
``curvature_1d``.

The CG iterates do not depend on the radius: the radius only picks where
the walk along them stops. ``SteihaugPath`` keeps that path for one (g, B)
and extends it one product at a time, so a re-solve at a smaller radius,
as after a rejected step, walks the stored prefix and forms no product.
The model decrease is carried through the CG recurrences instead of being
read off a final product ``s'Bs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hessians import HessianModel

Array = np.ndarray


class SolveError(RuntimeError):
    """A solve that cannot go on: a broken contract, an ill-posed model or non-finite data."""


def effective_radius(
    alpha: float, beta: float, delta: float, gnorm_term: float, bnorm_term: float
) -> float:
    """gnorm_term^alpha * (1 + bnorm_term)^(-beta) * delta.

    ``gnorm_term``/``bnorm_term`` hold either the current gradient/model
    norms or their historical min/max; the caller picks which. A radius
    past the float range, as a negative alpha and a tiny gradient give, is
    inf.
    """
    if not gnorm_term > 0:
        raise ValueError("zero gradient norm: caller must stop at stationarity")
    if not delta > 0:
        raise ValueError("delta must be positive")
    try:
        return gnorm_term**alpha * (1.0 + bnorm_term) ** (-beta) * delta
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def _norm(v: Array) -> float:
    """Euclidean norm of a 1-d float vector.

    ``np.linalg.norm`` computes exactly ``sqrt(v.dot(v))`` for such a
    vector, so this is bit-identical to it, without the wrapper's checks.
    For one element that dot is the single rounded product v0 * v0, which
    Python floats form without numpy's per-call cost; ``v.item(0)`` reads
    v0 as a Python float without the numpy scalar ``float(v[0])`` builds.
    """
    if len(v) == 1:
        x = v.item(0)
        return math.sqrt(x * x)
    return math.sqrt(v.dot(v))


@dataclass(slots=True)
class StepResult:
    """A step ``s`` with its model decrease m(0) - m(s), whether it ends on
    the boundary, the CG iterations it took (1 for the 1-d step) and its
    norm ``snorm`` = ``_norm(s)``, bit for bit, which each solver already
    holds."""

    s: Array
    model_decrease: float
    boundary_hit: bool
    cg_iters: int
    snorm: float


def _to_boundary(s: Array, d: Array, ss: float, radius: float) -> float:
    """Positive sigma with |s + sigma d| = radius, where ss = s's.

    The discriminant overflows once |d| radius passes about 1e154, though
    sigma, about radius / |d|, need not; s / radius, d / radius and the
    unit ball then give the same sigma (scaling by a radius of 1 cannot).
    """
    dd = float(d.dot(d))
    sd = float(s.dot(d))
    disc = sd * sd + dd * (radius * radius - float(ss))
    if disc == math.inf and radius != 1.0:
        s = s / radius
        return _to_boundary(s, d / radius, s.dot(s), 1.0)
    return (-sd + math.sqrt(max(disc, 0.0))) / dd


class SteihaugPath:
    """The truncated-CG path of one gradient g and model B.

    Starting from s_0 = 0, CG iteration i forms one product B d_i and the
    trial point s_{i+1} = s_i + alpha_i d_i. The path stops inside on (i) a
    residual <= min(0.1, sqrt|g|) |g| at s_{i+1} or (ii) n iterations, n the
    dimension of g; a direction of non-positive curvature (iii) ends it too,
    on the boundary of any ball. None of this reads the radius, so one path
    serves every radius: ``walk`` stops at the first trial point that leaves
    the ball, or at the end of the path. The path is extended lazily, one CG
    iteration at a time, and keeps per iteration the iterate s_i and s_i's_i,
    the direction d_i, the residual r_i (the model gradient at s_i), the
    trial norm |s_{i+1}|, d_i'Bd_i and the model decrease at s_i, which the
    recurrence dec_{i+1} = dec_i + alpha_i r_i'r_i / 2 carries. Only a walk
    that stops on the boundary at i reads r_i'd_i; it is formed then, once
    per index. B must not change while the path is in use.

    ``gnorm`` is |g| as ``_norm`` gives it. The driver passes the value it
    has already computed for its stopping test; without one the path
    computes it.
    """

    def __init__(self, g: Array, B: HessianModel, gnorm: float | None = None):
        g = np.asarray(g, dtype=float)
        if gnorm is None:
            gnorm = _norm(g)
        if gnorm == 0.0:
            raise ValueError("zero gradient")
        self._B = B
        self._stop = min(0.1, math.sqrt(gnorm)) * gnorm  # the residual that ends the path
        self._max_cg = g.size
        self._s = [np.zeros(g.size)]
        self._ss = [0.0]
        self._d: list[Array] = []
        self._r = [g]
        self._trial_norm: list[float] = []  # inf where d_i'Bd_i <= 0
        self._dBd: list[float] = []
        self._rd: dict[int, float] = {}  # r_i'd_i, for the i a walk has stopped at
        self._dec = [0.0]
        self._end: int | None = None  # index of the iterate the path stops at inside
        # the residual recurrence: r_i'r_i of the last r_i, and B d_i and alpha_i once known
        self._rr = gnorm**2
        self._Bd: Array | None = None
        self._alpha = 0.0

    def _extend(self) -> None:
        """Add CG iteration i = len(d), or mark s_i as the end of the path."""
        i = len(self._d)
        if i == 0:
            d = -self._r[0]
        else:
            if i == self._max_cg:
                self._end = i
                return
            r = self._r[-1] + self._alpha * self._Bd
            rr = float(r.dot(r))
            if math.sqrt(rr) <= self._stop:
                self._end = i
                return
            d = (rr / self._rr) * self._d[-1] - r
            self._r.append(r)
            self._rr = rr
        Bd = self._B.apply(d)
        dBd = float(d.dot(Bd))
        self._d.append(d)
        self._dBd.append(dBd)
        if dBd <= 0.0:
            self._trial_norm.append(math.inf)  # every walk stops on the boundary here
            return
        alpha = self._rr / dBd
        s = self._s[-1] + alpha * d
        ss = s.dot(s)
        self._s.append(s)
        self._ss.append(ss)
        self._trial_norm.append(math.sqrt(ss))  # _norm(s), bit for bit
        self._dec.append(self._dec[-1] + alpha * self._rr / 2)
        self._Bd, self._alpha = Bd, alpha

    def walk(self, radius: float) -> StepResult:
        """The step for the ball of this radius; see ``solve_tcg``."""
        if not radius > 0:
            raise ValueError("radius must be positive")
        trial_norm = self._trial_norm
        i = 0
        while i != self._end:
            if i == len(trial_norm):
                self._extend()
            elif trial_norm[i] >= radius:
                s, d = self._s[i], self._d[i]
                sigma = _to_boundary(s, d, self._ss[i], radius)
                rd = self._rd.get(i)
                if rd is None:
                    rd = self._rd[i] = float(self._r[i].dot(d))
                q = self._dBd[i]  # on zero curvature the term is q, even if sigma^2 is inf
                decrease = self._dec[i] - (sigma * rd + (sigma * sigma * q / 2 if q else q))
                s = s + sigma * d
                step = StepResult(s, decrease, True, i + 1, _norm(s))
                break
            else:
                i += 1
        else:  # the path ends inside at s_i, i >= 1, whose norm is stored
            step = StepResult(self._s[i], self._dec[i], False, i, trial_norm[i - 1])
        if not math.isfinite(step.model_decrease):
            if step.model_decrease == math.inf:
                # an overflow, not the NaN of an ill-posed model: as where the
                # radius sits at the driver's 1e150 clip and the curvature
                # term along a direction of negative curvature leaves the
                # float range
                raise SolveError(f"non-finite model decrease: it overflows at radius "
                                 f"{radius:g}; the objective may be unbounded below")
            raise SolveError("non-finite model decrease: ill-posed model")
        return step


def solve_tcg(
    g: Array,
    B: HessianModel,
    radius: float,
    path: SteihaugPath | None = None,
) -> StepResult:
    """Steihaug truncated CG on the ball of the given radius.

    Starts from s = 0 and stops on (i) residual <= min(0.1, sqrt|g|) |g|,
    (ii) negative curvature (step to the boundary along the current
    direction), (iii) a trial iterate leaving the ball (step to the
    boundary), or (iv) n iterations, n the dimension of g. A trial landing
    exactly on the boundary counts as a boundary hit. The first iterate is
    the Cauchy point and the model decrease is monotone along CG, so the
    returned decrease is at least the Cauchy decrease. The decrease comes
    from the CG recurrences, not from a final product s'Bs: each interior
    step adds alpha_i r_i'r_i / 2 to it, and the boundary step sigma d_i
    from s_i adds -(sigma r_i'd_i + sigma^2 d_i'Bd_i / 2).

    ``path`` is a ``SteihaugPath`` of this g and B that earlier calls may
    have walked; it is walked again and extended only where this radius
    needs it. Without one, a fresh path is built. A non-finite decrease
    raises SolveError; one that overflows to +inf names the radius, since
    the objective may be unbounded below.
    """
    if path is None:
        path = SteihaugPath(g, B)
    return path.walk(radius)


def newton_step_1d(g: Array, B: HessianModel, radius: float) -> StepResult:
    """Exact subproblem solve in one dimension.

    For positive curvature the interior minimizer is -g/b; concave or
    linear models, and Newton steps past the radius, end on the boundary.
    The single division keeps the step bit-reproducible, which the
    worst-case verifier relies on. In one dimension the Cauchy point
    minimizes the model over the whole ball, as this step does. b is
    ``B.curvature_1d()``, which forms no product for a scripted model. A
    non-finite gradient raises ValueError: the boundary branch would
    otherwise turn it into a finite step. ``g`` is a float array, whose
    element is read as a Python float with ``g.item(0)``; the step is
    formed in Python floats, with one ``abs``.
    """
    if g.size != 1:
        raise ValueError("newton_step_1d only handles dimension 1")
    g0 = g.item(0)
    if g0 == 0.0:
        raise ValueError("zero gradient")
    if not math.isfinite(g0):
        raise ValueError(f"non-finite gradient {g0!r}")
    b = B.curvature_1d()
    boundary = True
    if b > 0.0:
        step = -(g0 / b)
        size = abs(step)
        if size <= radius:
            boundary = size == radius
        else:
            step = math.copysign(radius, -g0)
    else:
        step = math.copysign(radius, -g0)
    decrease = -(g0 * step + 0.5 * b * step * step)
    # sqrt(step * step), not abs(step): it is _norm of the step, bit for bit,
    # where step * step rounds to a subnormal
    return StepResult(np.array([step]), decrease, boundary, 1, math.sqrt(step * step))

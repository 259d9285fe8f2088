"""Trust-region subproblem machinery.

The subproblem minimizes the quadratic model m(s) = f + g's + s'Bs/2 over
the ball |s| <= R with the scaled radius R = |g|^alpha (1+|B|)^-beta Delta.
Steps come from a Steihaug-type truncated conjugate gradient whose first
iterate is the Cauchy point, so the fraction-of-Cauchy-decrease contract
holds by construction (Steihaug 1983; Conn, Gould and Toint 2000, 7.5.1).
Both step solvers take a ``HessianModel`` and form every product with its
``apply``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hessians import HessianModel

Array = np.ndarray

# The unit vector newton_step_1d reads the 1-d curvature from; read-only,
# so no caller can change it.
_E1 = np.ones(1)
_E1.flags.writeable = False


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
    """
    return math.sqrt(v.dot(v))


@dataclass
class StepResult:
    s: Array
    model_decrease: float
    boundary_hit: bool
    cg_iters: int


def _to_boundary(s: Array, d: Array, radius: float) -> float:
    """Positive sigma with |s + sigma d| = radius."""
    dd = float(d @ d)
    sd = float(s @ d)
    ss = float(s @ s)
    disc = sd * sd + dd * (radius * radius - ss)
    return (-sd + np.sqrt(max(disc, 0.0))) / dd


def solve_tcg(
    g: Array,
    B: HessianModel,
    radius: float,
    cg_tol: float | None = None,
    max_cg: int | None = None,
) -> StepResult:
    """Steihaug truncated CG on the ball of the given radius.

    Starts from s = 0 and stops on (i) residual <= cg_tol |g|, (ii) negative
    curvature (step to the boundary along the current direction), (iii) a
    trial iterate leaving the ball (step to the boundary), or (iv) max_cg
    iterations. A trial landing exactly on the boundary counts as a
    boundary hit. The first iterate is the Cauchy point and the model
    decrease is monotone along CG, so the returned decrease is at least the
    Cauchy decrease. ``max_cg`` must be at least 1.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    gnorm = _norm(g)
    if gnorm == 0.0:
        raise ValueError("zero gradient")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if cg_tol is None:
        cg_tol = min(0.1, np.sqrt(gnorm))
    if max_cg is None:
        max_cg = n
    elif max_cg < 1:
        raise ValueError("max_cg must be at least 1")

    s = np.zeros(n)
    r = g.copy()  # model gradient at s
    d = -g
    rr = gnorm**2
    iters = 0
    boundary = False
    for _ in range(max_cg):
        Bd = B.apply(d)
        dBd = float(d @ Bd)
        iters += 1
        if dBd <= 0.0:
            s = s + _to_boundary(s, d, radius) * d
            boundary = True
            break
        alpha = rr / dBd
        trial = s + alpha * d
        if _norm(trial) >= radius:
            s = s + _to_boundary(s, d, radius) * d
            boundary = True
            break
        s = trial
        r = r + alpha * Bd
        rr_new = float(r @ r)
        if math.sqrt(rr_new) <= cg_tol * gnorm:
            break
        d = -r + (rr_new / rr) * d
        rr = rr_new

    decrease = -(float(g @ s) + 0.5 * float(s @ B.apply(s)))
    if not np.isfinite(decrease):
        raise FloatingPointError("non-finite model decrease: ill-posed model")
    return StepResult(s=s, model_decrease=decrease, boundary_hit=boundary, cg_iters=iters)


def newton_step_1d(g: Array, B: HessianModel, radius: float) -> StepResult:
    """Exact subproblem solve in one dimension.

    For positive curvature the interior minimizer is -g/b; concave or
    linear models, and Newton steps past the radius, end on the boundary.
    The single division keeps the step bit-reproducible, which the
    worst-case verifier relies on. In one dimension the Cauchy point
    minimizes the model over the whole ball, as this step does. A
    non-finite gradient raises ValueError: the boundary branch would
    otherwise turn it into a finite step.
    """
    g = np.asarray(g, dtype=float)
    if g.size != 1:
        raise ValueError("newton_step_1d only handles dimension 1")
    g0 = float(g[0])
    if g0 == 0.0:
        raise ValueError("zero gradient")
    if not math.isfinite(g0):
        raise ValueError(f"non-finite gradient {g0!r}")
    b = float(B.apply(_E1)[0])
    boundary = True
    if b > 0.0:
        step = -(g0 / b)
        if abs(step) <= radius:
            boundary = abs(step) == radius
        else:
            step = math.copysign(radius, -g0)
    else:
        step = math.copysign(radius, -g0)
    decrease = -(g0 * step + 0.5 * b * step * step)
    return StepResult(
        s=np.array([step]), model_decrease=decrease, boundary_hit=boundary, cg_iters=1
    )

"""Reference implementations the tests check the package against.

None of these is on a solver's code path: ``trfam``'s step solvers meet
the fraction-of-Cauchy-decrease contract by construction, and its models
are never materialised as dense matrices.
"""

import numpy as np

from trfam import ExactHessian, StepResult


def matrix_model(A) -> ExactHessian:
    """The fixed matrix A as a model: its ``apply`` is ``A @ v``."""
    return ExactHessian(lambda _: A, np.zeros(len(A)))


def cauchy_point(g, B, radius: float) -> StepResult:
    """Minimizer of the model along -g within the ball of the given radius.

    With positive curvature along g the step length is
    min(|g|^2 / g'Bg, radius/|g|); otherwise (concave or linear 1-d model)
    the minimum sits on the boundary.
    """
    g = np.asarray(g, dtype=float)
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        raise ValueError("zero gradient")
    if not radius > 0:
        raise ValueError("radius must be positive")
    Bg = B.apply(g)
    gBg = float(g @ Bg)
    t_boundary = radius / gnorm
    if gBg > 0.0:
        t = min(gnorm**2 / gBg, t_boundary)
    else:
        t = t_boundary
    decrease = t * gnorm**2 - 0.5 * t * t * gBg
    return StepResult(
        s=-t * g,
        model_decrease=decrease,
        boundary_hit=(t == t_boundary),
        cg_iters=0,
    )


def beats_cauchy(step: StepResult, g, B, radius: float) -> bool:
    """The step's model decrease is at least the Cauchy point's, up to a
    relative rounding slack of 1e-12."""
    cauchy = cauchy_point(g, B, radius).model_decrease
    return step.model_decrease >= cauchy - 1e-12 * max(1.0, abs(cauchy))


def dense_matrix(model) -> np.ndarray:
    """B as a dense matrix, one product per column."""
    cols = [model.apply(col) for col in np.eye(model.dim)]
    return np.column_stack(cols)

"""Property tests: built-in problems x {exact, lbfgs, lsr1} x alpha, beta in
[-1, 1]. A run either fails loudly with SolveError or logs only finite
numbers, and its Delta updates and rejected steps keep the family's rules.

The one NaN a passing run logs is rho's on a step whose model decrease is
below the driver's floor: it divides by nothing there. On the built-in
problems the a_k and model-decrease checks of ``check_run_invariants`` are
left out: with an estimated Lipschitz constant they are diagnostics, not
guarantees. On quadratics L = |A|_2 is exact, and both are checked; on
positive definite ones f_low is exact too, and the iteration bounds that
``audit_run`` checks hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trfam import Problem, TrParams, build_model, builtin_collection, check_run_invariants, solve
from trfam.bounds import BoundInputs, audit_run
from trfam.driver import (
    _DECREASE_FLOOR,
    _FLOAT_COLUMNS,
    RADIUS_MODES,
    SolveError,
    theoretical_a_min,
)

PROBLEMS = builtin_collection()
MAX_ITER = 60

unit = st.floats(-1.0, 1.0)
derandomized = settings(derandomize=True, deadline=None, max_examples=100, database=None)


def floor_iterations(report) -> np.ndarray:
    """Where the model decrease is below the driver's floor: rho is NaN there."""
    log = report.log
    floor = _DECREASE_FLOOR * (1 + np.abs(log.column("f")))
    return np.abs(log.column("model_decrease")) < floor


def check_finite(report) -> None:
    """Every logged number is finite, rho's on a floor iteration aside."""
    log = report.log
    for name in _FLOAT_COLUMNS:
        if name != "rho":
            assert np.isfinite(log.column(name)).all(), name
    assert np.isfinite(log.column("rho")[~floor_iterations(report)]).all()


@derandomized
@given(
    problem=st.sampled_from(PROBLEMS),
    mode=st.sampled_from(["exact", "lbfgs", "lsr1"]),
    alpha=unit,
    beta=unit,
)
def test_run_is_finite_or_fails_loudly(problem, mode, alpha, beta):
    params = TrParams(alpha=alpha, beta=beta)
    try:
        report = solve(problem, params, build_model(mode, problem), eps=1e-6, max_iter=MAX_ITER)
    except SolveError:
        return
    check_finite(report)
    L = report.lipschitz_estimate if np.isfinite(report.lipschitz_estimate) else 1.0
    issues = check_run_invariants(report, params, L)
    assert not [i for i in issues if "delta update" in i or "moved the iterate" in i]


def quadratic(seed: int, n: int, indefinite: bool) -> tuple[Problem, float]:
    """f = x'Ax/2 + b'x with eigenvalues of A from 1e-3 to 1e3 in magnitude,
    one or more negative when ``indefinite``, and its exact Lipschitz
    constant |A|_2."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if indefinite:
        lam *= rng.choice([-1.0, 1.0], n)
        lam[0] = -abs(lam[0])
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    problem = Problem("quadratic", n, lambda x: 0.5 * (x @ (A @ x)) + b @ x,
                      lambda x: A @ x + b, rng.standard_normal(n), eval_hess=lambda x: A)
    return problem, float(np.linalg.norm(A, 2))


@derandomized
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    indefinite=st.booleans(),
    mode=st.sampled_from(["exact", "lbfgs", "lsr1"]),
    alpha=unit,
    beta=unit,
    radius_mode=st.sampled_from(RADIUS_MODES),
)
def test_lemmas_hold_on_quadratics_before_the_floor(seed, n, indefinite, mode, alpha, beta,
                                                    radius_mode):
    """a_k >= a_min and the model decrease >= kappa_mdc min|g|^2 a_min /
    (1 + max|B|) hold at every iteration before the run's trailing streak
    of floor iterations, which keeps x, g and B and only halves Delta; the
    Delta-interval and moved-iterate checks hold everywhere."""
    problem, L = quadratic(seed, n, indefinite)
    params = TrParams(alpha=alpha, beta=beta, radius_mode=radius_mode)
    try:
        report = solve(problem, params, build_model(mode, problem), eps=1e-6, max_iter=200)
    except SolveError:
        return
    check_finite(report)
    above = np.flatnonzero(~floor_iterations(report))
    streak = int(above[-1]) + 1 if above.size else 0  # its first iteration
    for issue in check_run_invariants(report, params, L):
        assert "delta update" not in issue and "moved the iterate" not in issue, issue
        assert int(issue.split(":")[0].removeprefix("k=")) >= streak, issue


@derandomized
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    mode=st.sampled_from(["exact", "lbfgs", "lsr1"]),
    alpha=unit,
    beta=unit,
    radius_mode=st.sampled_from(RADIUS_MODES),
)
def test_bounds_hold_on_convex_quadratics(seed, n, mode, alpha, beta, radius_mode):
    """The paper's iteration bounds, audited where their inputs are exact:
    on a positive definite quadratic f_low is the minimum less 1e-9
    (1 + |f*|) and L = |A|_2. Every first_order run passes ``audit_run``
    for p in {0, 0.5, 1} and both counters."""
    problem, L = quadratic(seed, n, False)
    params = TrParams(alpha=alpha, beta=beta, radius_mode=radius_mode)
    try:
        # max_iter sized with the example count to run in about 2 s
        report = solve(problem, params, build_model(mode, problem), eps=1e-6, max_iter=500)
    except SolveError:
        return
    if report.status != "first_order":
        return
    A, b = problem.eval_hess(problem.x0), problem.eval_grad(np.zeros(n))
    f_star = -0.5 * float(b @ np.linalg.solve(A, b))
    a_min = theoretical_a_min(report.log.a_k[0], params, L)
    for p in (0.0, 0.5, 1.0):
        inputs = BoundInputs(params, f0=problem.eval_f(problem.x0),
                             f_low=f_star - 1e-9 * (1 + abs(f_star)), a_min=a_min, mu=1.0,
                             p=p, eps=1e-6, L=L)
        for assumption in ("successful_counter", "iteration_counter"):
            audit = audit_run(report, inputs, assumption)
            assert audit.passed, (p, assumption, audit.checks)


def test_unbounded_quadratic_names_the_overflow_at_the_clip():
    """An indefinite quadratic is unbounded below: the radius grows to the
    1e150 clip, where the boundary decrease along negative curvature
    overflows. The error names the radius and the objective, not the model."""
    problem, _ = quadratic(0, 2, True)
    with np.errstate(all="ignore"), pytest.raises(
            SolveError, match=r"^non-finite model decrease: it overflows at radius 1e\+150; "
                              r"the objective may be unbounded below$"):
        solve(problem, TrParams(), build_model("exact", problem), eps=1e-6, max_iter=3000)

"""Property tests: built-in problems x {exact, lbfgs, lsr1} x alpha, beta in
[-1, 1]. A run either fails loudly with SolveError or logs only finite
numbers, and its Delta updates and rejected steps keep the family's rules.

The one NaN a passing run logs is rho's on a step whose model decrease is
below the driver's floor: it divides by nothing there. The a_k and
model-decrease checks of ``check_run_invariants`` are left out: with an
estimated Lipschitz constant they are diagnostics, not guarantees.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trfam import TrParams, build_model, builtin_collection, check_run_invariants, solve
from trfam.driver import _DECREASE_FLOOR, _FLOAT_COLUMNS, SolveError

PROBLEMS = builtin_collection()
MAX_ITER = 60

unit = st.floats(-1.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
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
    log = report.log
    for name in _FLOAT_COLUMNS:
        if name != "rho":
            assert np.isfinite(log.column(name)).all(), name
    floor = _DECREASE_FLOOR * (1 + np.abs(log.column("f")))
    undivided = np.abs(log.column("model_decrease")) < floor
    assert np.isfinite(log.column("rho")[~undivided]).all()
    L = report.lipschitz_estimate if np.isfinite(report.lipschitz_estimate) else 1.0
    issues = check_run_invariants(report, params, L)
    assert not [i for i in issues if "delta update" in i or "moved the iterate" in i]

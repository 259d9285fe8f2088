"""Tests for the outer loop, its monitor quantities, and the CSV log."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from trfam import (
    AdversarialSpec,
    TrParams,
    ZeroModel,
    a_k,
    build_model,
    check_run_invariants,
    effective_radius,
    get_problem,
    log_to_csv,
    solve,
    theoretical_a_min,
    verify_sharpness,
)
from trfam import driver
from trfam.driver import CSV_HEADER, SolveError
from trfam.problems import Problem


def liar_problem():
    """Deterministic objective whose trial points never decrease: every
    iteration is unsuccessful and the radius collapses."""
    x0 = np.zeros(2)

    def f(x):
        return 0.0 if np.array_equal(x, x0) else 1e6

    def g(x):
        return np.array([1.0, 0.0])

    return Problem("liar", 2, f, g, x0)


class TestAk:
    def test_exponents_vanish(self):
        assert a_k(7.0, 123.0, 0.5, alpha=1.0, beta=1.0) == 7.0

    def test_hand_values(self):
        assert a_k(2.0, 1.0, 0.5, 0.0, 0.0) == pytest.approx(8.0)
        assert a_k(1.0, 3.0, 1.0, 0.0, 0.5) == pytest.approx(2.0)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            a_k(1.0, 1.0, 0.0, 0.0, 0.0)


class TestTheoreticalAMin:
    def test_hand_value(self):
        params = TrParams(gamma1=0.25, kappa_mdc=0.5, eta2=0.75)
        assert theoretical_a_min(1.0, params, L=2.0) == pytest.approx(0.03125)

    def test_tiny_a0_dominates(self):
        params = TrParams()
        assert theoretical_a_min(1e-9, params, L=2.0) == 1e-9

    def test_kappa_clamped_at_half(self):
        # kappa = max{L, 1}/2 = 0.5 for any L <= 1
        params = TrParams(gamma1=0.25, kappa_mdc=0.5, eta2=0.75)
        assert theoretical_a_min(1.0, params, L=0.5) == pytest.approx(
            0.25 * 0.5 * 0.25 / 0.5
        )


class TestParamsValidation:
    def test_eta_ordering(self):
        with pytest.raises(ValueError):
            TrParams(eta1=0.9, eta2=0.5)

    def test_gamma_ordering(self):
        with pytest.raises(ValueError):
            TrParams(gamma3=0.5)

    def test_alpha_cap(self):
        for kw in ({"alpha": 1.5}, {"alpha": math.nan}, {"beta": math.nan}):
            with pytest.raises(ValueError, match="alpha <= 1 and beta <= 1"):
                TrParams(**kw)


class TestSolve:
    def test_sphere_fast_with_exact_hessian(self):
        p = get_problem("sphere")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-8)
        assert r.status == "first_order"
        assert r.iterations <= 3
        # exact model on a quadratic: the model is the function, rho = 1
        assert all(rec.rho == pytest.approx(1.0) for rec in r.log)

    def test_zero_iterations_when_already_stationary(self):
        p = get_problem("sphere")

        stationary = Problem("at_min", 2, p.eval_f, p.eval_grad, np.zeros(2), 0.0, p.eval_hess)
        r = solve(stationary, TrParams(), build_model("exact", stationary), eps=1e-8)
        assert r.status == "first_order"
        assert r.iterations == 0
        assert r.n_succ_total == 0 and r.n_unsucc_total == 0

    def test_rosenbrock_regression_anchor(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6)
        assert r.status == "first_order"
        assert r.iterations <= 200
        assert r.iterations == 39  # regression anchor for the default config

    def test_iteration_counts_add_up(self):
        p = get_problem("himmelblau")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-8)
        assert r.iterations == r.n_succ_total + r.n_unsucc_total
        assert r.status == "first_order"

    def test_status_delta_consistency_and_monotone_f(self):
        p = get_problem("wood")
        params = TrParams()
        r = solve(p, params, build_model("exact", p), eps=1e-6)
        assert r.status == "first_order"
        issues = [m for m in check_run_invariants(r, params, r.lipschitz_estimate)]
        # decrease-floor checks use an L estimate here: only structural issues count
        structural = [m for m in issues if "delta update" in m or "moved the iterate" in m]
        assert structural == []
        fs = [rec.f for rec in r.log]
        accepted = [rec for rec in r.log if rec.status != "unsuccessful"]
        for a, b in zip(accepted, accepted[1:]):
            assert b.f < a.f or math.isclose(a.f, b.f, rel_tol=1e-15)

    def test_eval_accounting(self):
        p = get_problem("beale")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-8)
        # one f per trial plus the initial one; one g per accepted point plus initial
        assert r.evals.n_f == 1 + sum(1 for rec in r.log if not math.isnan(rec.rho))
        assert r.evals.n_g == 1 + r.n_succ_total

    def test_delta_underflow_on_liar(self):
        p = liar_problem()
        r = solve(p, TrParams(), build_model("zero", dim=2), eps=1e-8, max_iter=10_000)
        assert r.status == "delta_underflow"
        assert r.n_succ_total == 0

    def test_max_iter_stop(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6, max_iter=3)
        assert r.status == "max_iter"
        assert r.iterations == 3

    def test_eval_budget_stop(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6, eval_budget=1)
        assert r.status == "eval_budget"
        assert r.iterations == 0

    def test_eval_budget_binds_exactly(self):
        p = get_problem("rosenbrock")
        full = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-6)
        used = full.evals.n_f + full.evals.n_g
        same = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-6, eval_budget=used)
        assert (same.status, log_to_csv(same)) == (full.status, log_to_csv(full))
        short = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-6, eval_budget=used - 1)
        assert short.status == "eval_budget"
        assert short.evals.n_f + short.evals.n_g <= used - 1

    def test_history_radius_mode(self):
        p = get_problem("rosenbrock")
        params = TrParams(alpha=1.0, beta=1.0, radius_mode="history")
        r = solve(p, params, build_model("exact", p), eps=1e-6)
        assert r.status == "first_order"
        # effective radius must reflect the historical min/max scaling
        min_g = math.inf
        max_b = 0.0
        for rec in r.log:
            min_g = min(min_g, rec.gnorm)
            max_b = max(max_b, rec.bnorm)
            expected = min_g / (1.0 + max_b) * rec.delta
            assert rec.eff_radius == pytest.approx(expected, rel=1e-12)

    def test_update_on_unsuccessful_costs_gradients(self):
        p = get_problem("rosenbrock")
        base = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-6)
        extra = solve(
            p, TrParams(update_on_unsuccessful=True), build_model("lbfgs", p), eps=1e-6
        )
        assert base.evals.n_g == 1 + base.n_succ_total
        assert extra.evals.n_g > 1 + extra.n_succ_total

    def test_a_k_recorded_against_formula(self):
        p = get_problem("beale")
        params = TrParams(alpha=0.5, beta=0.5)
        r = solve(p, params, build_model("exact", p), eps=1e-8)
        min_g = math.inf
        max_b = 0.0
        for rec in r.log:
            min_g = min(min_g, rec.gnorm)
            max_b = max(max_b, rec.bnorm)
            assert rec.a_k == pytest.approx(a_k(rec.delta, max_b, min_g, 0.5, 0.5))

    def test_non_finite_start_raises(self):
        bad = Problem(
            "bad", 1, lambda x: float("inf"), lambda x: np.ones(1), np.zeros(1)
        )
        with pytest.raises(SolveError):
            solve(bad, TrParams(), build_model("zero", dim=1), eps=1e-6)

    # (1e300, 1e300) is finite, but |y| of the gradient change overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("g_trial", [(math.nan, 0.0), (1e300, 1e300)])
    def test_gradient_at_an_accepted_step_must_be_finite(self, g_trial):
        x0 = np.zeros(2)
        p = Problem(
            "step", 2,
            lambda x: 0.0 if np.array_equal(x, x0) else -1.0,
            lambda x: np.array([1.0, 0.0] if np.array_equal(x, x0) else g_trial),
            x0,
        )
        model = build_model("zero", dim=2)
        if math.isfinite(sum(g_trial)):
            assert solve(p, TrParams(), model, eps=1e-6, max_iter=1).n_succ_total == 1
        else:
            with pytest.raises(SolveError, match="step: non-finite f or gradient at k=0"):
                solve(p, TrParams(), model, eps=1e-6, max_iter=1)


def quartic_1d():
    return Problem(
        "quartic_1d", 1, lambda x: float(x[0] ** 4 + x[0] ** 2),
        lambda x: np.array([4.0 * x[0] ** 3 + 2.0 * x[0]]), np.array([2.0]),
    )


class TestStepByDimension:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the driver's calls to each step solver, by global name."""
        calls = {"newton_step_1d": 0, "solve_tcg": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(driver, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(driver, name, counted)
        return calls

    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1", "zero"])
    def test_one_dimensional_problem_takes_the_exact_1d_step(self, calls, mode):
        p = quartic_1d()
        r = solve(p, TrParams(), build_model(mode, p), eps=1e-8)
        assert r.iterations > 0
        assert calls == {"newton_step_1d": r.iterations, "solve_tcg": 0}
        assert all(rec.cg_iters == 1 for rec in r.log)

    @pytest.mark.parametrize("mode", ["exact", "lbfgs"])
    def test_two_dimensional_problem_takes_the_cg_step(self, calls, mode):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model(mode, p), eps=1e-6)
        assert r.status == "first_order"
        assert calls == {"newton_step_1d": 0, "solve_tcg": r.iterations}


class TestCsv:
    def test_header_and_roundtrip(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6)
        text = log_to_csv(r)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "k,f,gnorm,delta,eff_radius,rho,status,bnorm,n_succ,a_k,cg_iters"
        assert len(lines) == 1 + len(r.log)
        for line, rec in zip(lines[1:], r.log):
            cols = line.split(",")
            assert len(cols) == 11
            assert int(cols[0]) == rec.k
            # 17 significant digits round-trip float64 exactly
            assert float(cols[1]) == rec.f
            assert float(cols[3]) == rec.delta
            assert cols[6] in ("VS", "S", "U")
            assert int(cols[8]) == rec.n_succ
            assert float(cols[9]) == rec.a_k

    def test_status_letters(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6)
        letters = {line.split(",")[6] for line in log_to_csv(r).strip().splitlines()[1:]}
        assert letters <= {"VS", "S", "U"}
        assert "VS" in letters


class TestIterationLog:
    def run(self):
        p = get_problem("rosenbrock")
        return solve(p, TrParams(), build_model("exact", p), eps=1e-6).log

    def test_views_match_the_columns(self):
        log = self.run()
        n = len(log)
        assert n == len(log.f) == len(log.status) > 10
        columns = [f.name for f in fields(driver.IterationRecord) if f.name not in ("k", "status")]
        for i, rec in enumerate(log):
            assert rec.k == i
            assert rec.status == driver.STATUSES[log.status[i]]
            for name in columns:
                assert repr(getattr(rec, name)) == repr(getattr(log, name)[i]), (i, name)
            # NaN fields compare unequal, so compare the reprs
            assert repr(log[i]) == repr(rec) == repr(log[i - n])

    def test_slices_are_lists_of_views(self):
        log = self.run()
        n = len(log)
        assert [r.k for r in log[2:9:3]] == [2, 5, 8]
        assert [r.k for r in log[-3:]] == [n - 3, n - 2, n - 1]
        assert repr(log[1:4]) == repr([log[1], log[2], log[3]])
        assert log[n:] == []
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                log[i]

    def test_column_is_a_read_only_view(self):
        log = self.run()
        rho = log.column("rho")
        assert rho.dtype == np.float64 and rho.size == len(log)
        assert np.array_equal(rho, np.array(log.rho), equal_nan=True)
        with pytest.raises(ValueError):
            rho[0] = 0.0

    def test_replay_log_holds_at_most_120_bytes_per_iteration(self):
        # one boxed IterationRecord per iteration took about 400 B
        spec = AdversarialSpec(0.01, 0.0)  # k_eps = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sharp, report = verify_sharpness(spec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sharp.passed and len(report.log) == sharp.k_eps == 10_000
        assert held / sharp.k_eps <= 120


def tilted_line(slope):
    """f(x) = slope * x in one dimension."""
    return Problem("tilt", 1, lambda x: slope * float(x[0]), lambda x: np.array([slope]),
                   np.zeros(1))


class TestRadiusClip:
    def test_delta_stops_at_delta_max(self):
        # with a zero model every step is a boundary step with rho = 1, so
        # Delta doubles until the clip
        params = TrParams()
        r = solve(tilted_line(1.0), params, ZeroModel(1), eps=1e-6, max_iter=600)
        delta = r.log.column("delta")
        assert r.log[0].status == "very_successful"
        assert set(r.log.status) == {driver.STATUSES.index("very_successful")}
        assert delta.max() == driver._DELTA_MAX == delta[-1]
        assert np.isfinite(r.log.column("a_k")).all()
        assert check_run_invariants(r, params, 1.0) == []

    def test_delta_max_step_outside_its_interval_is_still_flagged(self):
        params = TrParams()
        r = solve(tilted_line(1.0), params, ZeroModel(1), eps=1e-6, max_iter=600)
        r.log.delta[-1] = driver._DELTA_MAX / 4  # neither the clip nor gamma3 * Delta
        issues = check_run_invariants(r, params, 1.0)
        assert len(issues) == 1 and issues[0].startswith(f"k={len(r.log) - 2}: delta update")

    def test_negative_alpha_and_tiny_gradient(self):
        # |g|^alpha = 1e200: the radius passes Delta_max at Delta = 1
        assert effective_radius(-2.0, 0.0, 1.0, 1e-160, 0.0) == math.inf  # float ** overflows
        r = solve(tilted_line(1e-100), TrParams(alpha=-2.0), ZeroModel(1), eps=1e-200,
                  max_iter=3)
        assert list(r.log.eff_radius) == [driver._DELTA_MAX] * 3
        assert list(r.log.delta) == [1.0, 2.0, 4.0]
        assert np.isfinite(r.log.column("a_k")).all()

    def test_a_k_past_the_float_range_is_a_solve_error(self):
        # |g|^(1 - alpha) = (1e-160)^3 underflows to 0, so a_k divides by 0
        p = Problem("half_square", 1, lambda x: 0.5 * float(x[0]) ** 2, lambda x: x.copy(),
                    np.array([1e-160]), eval_hess=lambda x: np.eye(1))
        with pytest.raises(SolveError, match="a_k out of the float range at k=0"):
            solve(p, TrParams(alpha=-2.0), build_model("exact", p), eps=1e-300)

    @pytest.mark.parametrize("args,error", [
        ((1.0, 0.0, 1e-160, -2.0, 0.0), ZeroDivisionError),  # denominator underflows
        ((1e300, 1e10, 1.0, 0.0, 0.0), OverflowError),  # inf product
        ((1.0, 1e10, 1.0, 0.0, -40.0), OverflowError),  # float ** overflows
    ])
    def test_a_k_raises_past_the_float_range(self, args, error):
        with pytest.raises(error):
            a_k(*args)

"""Tests for the outer loop, its monitor quantities, and the CSV log."""

import math
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from trfam import (
    AdversarialSpec,
    Interpolant1D,
    ScriptedModel,
    TrParams,
    ZeroModel,
    a_k,
    build_model,
    check_run_invariants,
    effective_radius,
    generate,
    get_problem,
    log_to_csv,
    solve,
    theoretical_a_min,
    verify_sharpness,
)
from trfam import driver
from trfam.bench import RunSpec, solve_cell
from trfam.driver import CSV_HEADER, SolveError
from trfam.problems import Problem

# the status column's code of a rejected step
UNSUCC = driver.STATUSES.index(driver.UNSUCCESSFUL)

# check_budgets' message for each budget it rejects
BUDGET_RULES = {"max_iter": "max_iter must be nonnegative",
                "eval_budget": "eval_budget must be at least 2"}


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

    @pytest.mark.parametrize("name", ["eta1", "eta2", "gamma1", "gamma2", "gamma3", "gamma4",
                                      "kappa_mdc", "alpha", "beta", "delta0"])
    def test_non_finite_constant_rejected(self, name):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                TrParams(**{name: value})

    def test_infinite_constants_that_pass_the_orderings_rejected(self):
        for kw, name in (({"gamma3": math.inf, "gamma4": math.inf}, "gamma3"),
                         ({"gamma4": math.inf}, "gamma4"), ({"alpha": -math.inf}, "alpha"),
                         ({"beta": -math.inf}, "beta"), ({"delta0": math.inf}, "delta0")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrParams(**kw)

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
        assert all(rho == pytest.approx(1.0) for rho in r.log.rho)

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
        accepted = [f for f, code in zip(r.log.f, r.log.status) if code != UNSUCC]
        for a, b in zip(accepted, accepted[1:]):
            assert b < a or math.isclose(a, b, rel_tol=1e-15)

    def test_eval_accounting(self):
        p = get_problem("beale")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-8)
        # one f per trial plus the initial one; one g per accepted point plus initial
        assert r.evals.n_f == 1 + sum(not math.isnan(rho) for rho in r.log.rho)
        assert r.evals.n_g == 1 + r.n_succ_total

    def test_delta_underflow_on_liar(self):
        p = liar_problem()
        r = solve(p, TrParams(), build_model("zero", p), eps=1e-8, max_iter=10_000)
        assert r.status == "delta_underflow"
        assert r.n_succ_total == 0

    # From x0 = (1e20, 0) very successful steps along -g reach a wall at
    # x = (wall, 0), and every later step crosses it and is rejected.
    # Moving in, |x0| and the accepted |s| add up to five times the final
    # |x|, so the stop must rest on the exact |x_k|; moving out, they add
    # up to it, eight times |x0|, so a guard looser than that sum stops late.
    @pytest.mark.parametrize("slope,wall,delta0,n_succ,bound", [
        (1.0, -5e19, 2e19, 4, 2.5e20),
        (-1.0, 8e20, 1e20, 3, 8e20),
    ], ids=["inward", "outward"])
    def test_delta_underflow_far_from_the_origin(self, slope, wall, delta0, n_succ, bound):
        iterates = []  # x0 and each accepted point, where the driver asks for g

        def grad(x):
            iterates.append(x.copy())
            return np.array([slope, 0.0])

        p = Problem("wall", 2, lambda x: slope * float(x[0]) if slope * x[0] >= slope * wall
                    else 1e300, grad, np.array([1e20, 0.0]))
        params = TrParams(delta0=delta0)
        r = solve(p, params, ZeroModel(2), eps=1e-6)
        assert (r.status, r.n_succ_total, r.x.tolist()) == ("delta_underflow", n_succ, [wall, 0])
        accepted = [s for s, code in zip(r.log.snorm, r.log.status) if code != UNSUCC]
        assert 1e20 + sum(accepted) == bound
        # |x_k| recomputed from the iterates; the radius at the stop is the
        # next Delta after a rejected step, as alpha = beta = 0
        before = [0, *r.log.n_succ]  # accepted steps before iteration k
        threshold = [1e-15 * max(1.0, float(np.linalg.norm(iterates[n]))) for n in before]
        radius = [*r.log.eff_radius, params.gamma2 * r.log.eff_radius[-1]]
        below = [k for k in range(len(radius)) if radius[k] < threshold[k]]
        assert below[0] == r.iterations == len(r.log)

    def test_no_norm_is_thrown_away(self, monkeypatch):
        # per iteration: |g| at the top and |y| after an accepted step;
        # then |x0|. The report's final |g| is the loop's last. |x| is read
        # again only near the underflow test's threshold, which this run
        # stays far from.
        calls = []
        norm = driver._norm
        monkeypatch.setattr(driver, "_norm", lambda v: calls.append(v) or norm(v))
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6)
        assert len(calls) == (r.iterations + 1) + r.n_succ_total + 1

    def test_max_iter_stop(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6, max_iter=3)
        assert r.status == "max_iter"
        assert r.iterations == 3

    def test_eval_budget_stop(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6, eval_budget=2)
        assert r.status == "eval_budget"
        assert r.iterations == 0
        assert (r.evals.n_f, r.evals.n_g) == (1, 1)

    # a budget must pay for the f and g at x0
    @pytest.mark.parametrize("budget", [{"max_iter": -1}, {"eval_budget": -1},
                                        {"eval_budget": 0}, {"eval_budget": 1}])
    def test_negative_budget_rejected(self, budget):
        p = get_problem("rosenbrock")
        with pytest.raises(ValueError, match=BUDGET_RULES[next(iter(budget))]):
            solve(p, TrParams(), build_model("exact", p), eps=1e-6, **budget)

    @pytest.mark.parametrize("eps,message", [
        (0.0, "eps must be positive"),
        (math.nan, "eps must be positive"),
        (math.inf, "eps must be finite"),
    ])
    def test_eps_outside_the_positive_floats_rejected(self, eps, message):
        p = get_problem("rosenbrock")
        with pytest.raises(ValueError, match=message):
            solve(p, TrParams(), build_model("exact", p), eps=eps)

    def test_eval_budget_binds_exactly(self):
        p = get_problem("rosenbrock")
        full = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-6)
        used = full.evals.n_f + full.evals.n_g
        same = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-6, eval_budget=used)
        assert (same.status, log_to_csv(same)) == (full.status, log_to_csv(full))
        short = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-6, eval_budget=used - 1)
        assert short.status == "eval_budget"
        assert short.evals.n_f + short.evals.n_g <= used - 1

    @pytest.mark.parametrize("hessian,update", [("exact", False), ("lbfgs", False),
                                                ("lbfgs", True)])
    def test_every_evaluation_is_in_the_log(self, hessian, update):
        # an iteration starts only when its trial f and that f's g fit, so
        # no trial f is spent on a step the log then lacks
        p = get_problem("rosenbrock")
        params = TrParams(update_on_unsuccessful=update)
        for budget in range(2, 41):
            r = solve(p, params, build_model(hessian, p), eps=1e-6, eval_budget=budget)
            used = r.evals.n_f + r.evals.n_g
            assert used <= budget
            assert r.evals.n_f == 1 + np.count_nonzero(~np.isnan(r.log.column("rho")))
            if r.status == "eval_budget":
                assert used >= budget - 1
            assert math.isfinite(r.final_f) and math.isfinite(r.final_gnorm)

    def test_history_radius_mode(self):
        p = get_problem("rosenbrock")
        params = TrParams(alpha=1.0, beta=1.0, radius_mode="history")
        r = solve(p, params, build_model("exact", p), eps=1e-6)
        assert r.status == "first_order"
        # effective radius must reflect the historical min/max scaling
        min_g = math.inf
        max_b = 0.0
        log = r.log
        for gnorm, bnorm, delta, radius in zip(log.gnorm, log.bnorm, log.delta, log.eff_radius):
            min_g = min(min_g, gnorm)
            max_b = max(max_b, bnorm)
            assert radius == pytest.approx(min_g / (1.0 + max_b) * delta, rel=1e-12)

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
        log = r.log
        for gnorm, bnorm, delta, ak in zip(log.gnorm, log.bnorm, log.delta, log.a_k):
            min_g = min(min_g, gnorm)
            max_b = max(max_b, bnorm)
            assert ak == pytest.approx(a_k(delta, max_b, min_g, 0.5, 0.5))

    def test_non_finite_start_raises(self):
        bad = Problem(
            "bad", 1, lambda x: float("inf"), lambda x: np.ones(1), np.zeros(1)
        )
        with pytest.raises(SolveError):
            solve(bad, TrParams(), build_model("zero", bad), eps=1e-6)

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
        model = build_model("zero", p)
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
        assert list(r.log.cg_iters) == [1] * r.iterations

    @pytest.mark.parametrize("mode", ["exact", "lbfgs"])
    def test_two_dimensional_problem_takes_the_cg_step(self, calls, mode):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model(mode, p), eps=1e-6)
        assert r.status == "first_order"
        assert calls == {"newton_step_1d": 0, "solve_tcg": r.iterations}


class TestPathReuse:
    """After a rejected step the driver walks the CG path it already has;
    an accepted step or a model update that changes B drops it."""

    def record_steps(self, monkeypatch, model):
        """Per ``solve_tcg`` call of the driver: the radius, the step, the
        model's ``apply`` calls inside the call, and a one-shot
        ``solve_tcg`` on the model as it was then."""
        calls = []
        products = [0]
        apply = model.apply

        def counted(v):
            products[0] += 1
            return apply(v)

        def recorded(g, B, radius, *rest):
            before = products[0]
            step = real(g, B, radius, *rest)
            made = products[0] - before
            calls.append({"products": made, "radius": radius, "step": step,
                          "one_shot": real(g, B, radius)})
            return step

        real = driver.solve_tcg
        model.apply = counted
        monkeypatch.setattr(driver, "solve_tcg", recorded)
        return calls

    def assert_one_shot(self, call):
        step, one_shot = call["step"], call["one_shot"]
        assert np.array_equal(step.s, one_shot.s)
        assert (step.model_decrease, step.boundary_hit, step.cg_iters) == (
            one_shot.model_decrease, one_shot.boundary_hit, one_shot.cg_iters)

    @pytest.mark.parametrize("mode", ["exact", "lbfgs", "lsr1"])
    def test_rejected_step_rewalks_without_a_product(self, monkeypatch, mode):
        p = get_problem("rosenbrock")
        model = build_model(mode, p)
        calls = self.record_steps(monkeypatch, model)
        r = solve(p, TrParams(), model, eps=1e-6)
        assert len(calls) == r.iterations
        rejected = r.log.column("status") == driver.STATUSES.index("unsuccessful")
        assert rejected.sum() > 5
        for k, call in enumerate(calls):
            if k and rejected[k - 1]:
                # the same g and B at a smaller radius: inside the stored path
                assert call["products"] == 0
                assert call["radius"] < calls[k - 1]["radius"]
            else:
                assert call["products"] == call["step"].cg_iters
            self.assert_one_shot(call)

    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_pair_admitted_on_a_rejected_step_forces_a_new_path(self, monkeypatch, mode):
        p = get_problem("rosenbrock")
        model = build_model(mode, p)
        admitted = []
        update = model.update
        model.update = lambda s, y: admitted.append(update(s, y)) or admitted[-1]
        calls = self.record_steps(monkeypatch, model)
        r = solve(p, TrParams(update_on_unsuccessful=True), model, eps=1e-6)
        assert len(admitted) == len(calls) == r.iterations  # one update per step
        rejected = r.log.column("status") == driver.STATUSES.index("unsuccessful")
        forced = 0
        for k, call in enumerate(calls):
            if k and rejected[k - 1] and admitted[k - 1]:
                assert call["products"] == call["step"].cg_iters  # a fresh path
                forced += 1
            self.assert_one_shot(call)
        assert forced > 3

    def test_one_dimensional_run_builds_no_path(self, monkeypatch):
        built = []
        monkeypatch.setattr(driver, "SteihaugPath", lambda *a: built.append(a))
        p = quartic_1d()
        r = solve(p, TrParams(), build_model("lbfgs", p), eps=1e-8)
        assert r.iterations > 0 and built == []


class TestCsv:
    def test_header_and_roundtrip(self):
        p = get_problem("rosenbrock")
        r = solve(p, TrParams(), build_model("exact", p), eps=1e-6)
        text = log_to_csv(r)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "k,f,gnorm,delta,eff_radius,rho,status,bnorm,n_succ,a_k,cg_iters"
        log = r.log
        assert len(lines) == 1 + len(log)
        rows = zip(lines[1:], log.f, log.delta, log.n_succ, log.a_k)
        for k, (line, f, delta, n_succ, ak) in enumerate(rows):
            cols = line.split(",")
            assert len(cols) == 11
            assert int(cols[0]) == k
            # 17 significant digits round-trip float64 exactly
            assert float(cols[1]) == f
            assert float(cols[3]) == delta
            assert cols[6] in ("VS", "S", "U")
            assert int(cols[8]) == n_succ
            assert float(cols[9]) == ak

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

    def test_indices_in_and_out_of_range(self):
        log = self.run()
        n = len(log)
        assert [log[i].k for i in (-3, -2, -1)] == [n - 3, n - 2, n - 1]
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

    def test_replay_log_holds_at_most_82_bytes_per_iteration(self):
        # one boxed IterationRecord per iteration took about 400 B, and a
        # stored n_succ column took the log to about 86 B
        spec = AdversarialSpec(0.01, 0.0)  # k_eps = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sharp, report = verify_sharpness(spec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sharp.passed and len(report.log) == sharp.k_eps == 10_000
        assert held / sharp.k_eps <= 82

    def test_iteration_derives_n_succ_once(self, monkeypatch):
        sharp, report = verify_sharpness(AdversarialSpec(0.01, 0.0))
        reads = []
        derive = driver.IterationLog.n_succ.fget
        monkeypatch.setattr(driver.IterationLog, "n_succ",
                            property(lambda log: reads.append(1) or derive(log)))
        records = list(report.log)
        assert len(records) == 10_000 and len(reads) == 1
        assert records[-1].n_succ == report.n_succ_total


class TestDerivedCounts:
    """n_succ and the run's counts are read off the status column."""

    @pytest.fixture(params=[False, True], ids=["lbfgs", "lbfgs_update_on_unsuccessful"])
    def report(self, request):
        p = get_problem("rosenbrock")
        params = TrParams(update_on_unsuccessful=request.param)
        r = solve(p, params, build_model("lbfgs", p), eps=1e-6)
        assert r.n_unsucc_total > 0 and r.n_succ_total > 0  # both kinds of step occur
        return r

    def test_n_succ_is_the_running_count_of_accepted_steps(self, report):
        log = report.log
        running, count = [], 0
        for code in log.status:
            count += driver.STATUSES[code] != "unsuccessful"
            running.append(count)
        assert log.n_succ.typecode == "q"
        assert list(log.n_succ) == running
        assert running[-1] == report.n_succ_total

    def test_counts_add_up(self, report):
        assert report.n_succ_total + report.n_unsucc_total == report.iterations == len(report.log)
        assert report.n_unsucc_total == report.log.status.count(UNSUCC)

    def test_indexed_views_match_the_iterated_ones(self, report):
        log = report.log
        n = len(log)
        for i, rec in enumerate(log):
            assert log[i].n_succ == log[i - n].n_succ == rec.n_succ == log.n_succ[i], i

    def test_csv_column_is_the_derived_one(self, report):
        rows = log_to_csv(report).strip().splitlines()[1:]
        assert [int(row.split(",")[8]) for row in rows] == list(report.log.n_succ)


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
        assert driver.STATUSES[r.log.status[0]] == "very_successful"
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


class TestFloorStreak:
    """An iteration whose model decrease falls below the driver's floor
    logs rho NaN, evaluates no f and halves Delta. x, g and B stay as they
    are, so once such a streak starts it lasts to the end of the run. With
    the run's own Lipschitz estimate as L, the a_k and decrease checks
    break only inside it."""

    @pytest.mark.parametrize("spec", [
        RunSpec("arwhead", 1.0, 1.0, "exact"),
        RunSpec("rastrigin", 1.0, 1.0, "lbfgs", max_iter=500),
    ], ids=["arwhead/exact/1_1", "rastrigin/lbfgs/1_1"])
    def test_invariant_breaks_lie_in_the_trailing_streak(self, spec):
        problem = get_problem(spec.problem)
        r = solve_cell(spec, problem, build_model(spec.hessian, problem, memory=spec.memory))
        assert r.status == "delta_underflow"
        floor = np.isnan(r.log.column("rho"))
        streak = int(np.flatnonzero(~floor)[-1]) + 1  # its first iteration
        assert streak < len(floor)
        issues = check_run_invariants(r, TrParams(alpha=spec.alpha, beta=spec.beta),
                                      r.lipschitz_estimate)
        breaks = [int(m.split(":")[0].removeprefix("k=")) for m in issues]
        assert breaks and min(breaks) >= streak


class TestCallCount:
    """The worst-case replay's cost is Python overhead, and the number of
    Python calls it makes is exact where its wall time is noisy."""

    def test_replay_makes_13_python_calls_per_iteration(self):
        # The 13 of a 1-d iteration: _norm x2, Interpolant1D.__call__,
        # StepResult.__init__, f, g, operator_norm, effective_radius,
        # newton_step_1d, curvature_1d, update, a_k and append. The run's
        # setup adds a fixed 15, so with k_eps = 1,000 one more call per
        # iteration reads 14.0 and fails. C calls are not
        # counted: which builtins numpy routes through changes with its version.
        spec = AdversarialSpec(10**-1.5, 0.0)
        inst = generate(spec)
        problem = Interpolant1D(inst).as_problem()
        params = TrParams(alpha=spec.alpha, beta=spec.beta, delta0=inst.delta0)
        model = ScriptedModel(inst.B_vals)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            r = solve(problem, params, model, eps=spec.eps, max_iter=inst.k_eps + 10)
        finally:
            sys.setprofile(None)
        assert r.iterations == inst.k_eps >= 1_000
        assert calls / r.iterations < 13.5, calls

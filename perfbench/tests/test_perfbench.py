"""Tests of the benchmark's own logic: span self times, the tail rule,
failure accounting, repeatable totals and the design record.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
import stats
import tracing
import workloads
from trfam import adversarial, driver
from trfam.hessians import build_model
from trfam.problems import Problem, get_problem

ROOT = Path(__file__).resolve().parents[2]


# -- spans and self time -----------------------------------------------------


def test_self_times_subtract_nested_children():
    # solve [0,100] > norm [10,60] > apply [20,30], apply [40,45];
    # solve > step [70,90] > apply [75,80]
    spans = [
        ("driver.solve", 0, 100, -1, 0),
        ("hessians.operator_norm", 10, 60, 0, 0),
        ("hessians.apply", 20, 30, 1, 0),
        ("hessians.apply", 40, 45, 1, 0),
        ("subproblem.solve_tcg", 70, 90, 0, 0),
        ("hessians.apply", 75, 80, 4, 0),
    ]
    assert tracing.self_times(spans) == [30, 35, 10, 5, 15, 5]
    layer = tracing.layer_metrics(spans, Counter(cg_iters=3, boundary_hits=1), 4, 2)
    assert layer["hessians.norm_apply_calls"] == 2
    assert layer["hessians.apply_calls"] == 3
    assert layer["subproblem.apply_per_step"] == 1.0
    assert layer["hessians.norm_self_s"] == pytest.approx(35e-9)
    assert layer["driver.self_s"] == pytest.approx(30e-9)
    assert layer["driver.self_us_per_iter"] == pytest.approx(30e-9 * 1e6 / 4)
    assert layer["driver.accept_frac"] == 0.5
    assert layer["subproblem.boundary_frac"] == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0, 10, -1, 0), ("b", 2, 6, 0, 0), ("c", 4, 8, 0, 0)]
    assert tracing.self_times(spans)[0] == 10 - 6


def test_traced_solve_nests_apply_in_norm_and_keeps_the_trajectory():
    problem = get_problem("illcond_quad")
    params = driver.TrParams()
    plain = driver.solve(problem, params, build_model("lbfgs", problem), eps=1e-6, max_iter=15)

    tracer = tracing.Tracer()
    traced_problem = tracer.problem(problem)
    model = tracer.model(build_model("lbfgs", traced_problem))
    with tracer.patched():
        report = tracer.wrap("driver.solve", driver.solve)(
            traced_problem, params, model, eps=1e-6, max_iter=15)
    spans, counts = tracer.take()

    assert (report.iterations, report.evals.n_f, report.evals.n_g) == (
        plain.iterations, plain.evals.n_f, plain.evals.n_g)
    assert report.final_f == plain.final_f
    # the patches are gone again
    assert driver.solve_tcg.__module__ == "trfam.subproblem"

    names = [s[0] for s in spans]
    parent_of = {i: spans[s[3]][0] for i, s in enumerate(spans) if s[3] >= 0}
    norm_applies = sum(1 for i, n in enumerate(names)
                       if n == "hessians.apply" and parent_of.get(i) == "hessians.operator_norm")
    assert norm_applies > 0 and norm_applies % problem.dim == 0  # dense norm: dim products
    # every norm span sits inside the solve
    assert all(parent_of[i] == "driver.solve"
               for i, n in enumerate(names) if n == "hessians.operator_norm")
    selfs = tracing.self_times(spans)
    root = [i for i, s in enumerate(spans) if s[3] < 0]
    assert len(root) == 1 and min(selfs) >= 0
    assert sum(selfs) == spans[root[0]][2] - spans[root[0]][1]  # self times partition the root

    layer = tracing.layer_metrics(spans, counts, report.iterations, report.n_succ_total)
    assert layer["subproblem.step_calls"] == report.iterations
    assert layer["subproblem.cg_iters"] == sum(r.cg_iters for r in report.log)
    assert layer["hessians.norm_apply_calls"] == norm_applies
    assert layer["problems.f_calls"] == report.evals.n_f
    assert layer["problems.g_calls"] == report.evals.n_g


def test_traced_verify_reaches_the_scripted_model_and_interpolant():
    tracer = tracing.Tracer()
    spec = adversarial.AdversarialSpec(eps=0.1, p=0.0)
    with tracer.patched():
        sharp, report = adversarial.verify_sharpness(spec)
    spans, counts = tracer.take()
    assert sharp.passed
    layer = tracing.layer_metrics(spans, counts, report.iterations, report.n_succ_total)
    assert layer["subproblem.step_calls"] == report.iterations == sharp.k_eps
    assert layer["subproblem.apply_per_step"] == 2.0  # newton step + its cauchy point
    assert layer["hessians.norm_calls"] == report.iterations
    assert layer["problems.f_calls"] == report.evals.n_f
    assert layer["adversarial.lower_bound_s"] > 0
    assert adversarial.ScriptedModel.__module__ == "trfam.hessians"


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, q, value, above",
    [
        (1000, 99.0, 990, 10),
        (999, 90.0, 900, 99),
        (100, 90.0, 90, 10),
        (99, 50.0, 50, 49),
        (20, 50.0, 10, 10),
        (15, 50.0, 8, 7),  # too few samples: the median, with the short count shown
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_above(n, q, value, above):
    samples = list(range(n, 0, -1))
    assert stats.tail(samples) == (q, value, above)


def test_percentile_is_nearest_rank():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([1, 2, 3, 4], 50) == 2
    assert stats.percentile([5], 99) == 5


# -- failure accounting ------------------------------------------------------


def _raising_problem():
    def f(x):
        raise ZeroDivisionError("boom")

    return Problem("raises", 2, f, lambda x: 2.0 * x, np.ones(2), 0.0,
                   lambda x: 2.0 * np.eye(2))


def _nonfinite_start_problem():
    return Problem("nan_start", 2, lambda x: float("nan"), lambda x: 2.0 * x, np.ones(2), 0.0,
                   lambda x: 2.0 * np.eye(2))


def test_raising_cells_are_counted_and_the_pass_goes_on(tmp_path):
    good = get_problem("sphere")
    cells = [
        workloads.Cell(_raising_problem(), "exact", 0.0, 0.0, 50),
        workloads.Cell(good, "exact", 0.0, 0.0, 50),
        workloads.Cell(_nonfinite_start_problem(), "exact", 0.0, 0.0, 50),
    ]
    res = workloads.MatrixWorkload(cells, [], tmp_path).run_pass()
    # three solves plus the profile/emit step
    assert res.attempted == 4
    assert res.failed == 2
    assert len(res.op_ms) == 3
    assert res.solved == 1
    assert [f.split(":")[0] for f in res.failures] == ["raises/exact/0_0", "nan_start/exact/0_0"]
    assert "ZeroDivisionError" in res.failures[0]
    assert "SolveError" in res.failures[1]
    assert (tmp_path / "matrix.csv").read_text().count("error") == 2


def test_failed_profiles_count_as_a_failed_operation(tmp_path):
    cells = [workloads.Cell(_raising_problem(), "exact", 0.0, 0.0, 50)]
    res = workloads.MatrixWorkload(cells, [], tmp_path).run_pass()
    # nothing solved: performance_profile raises, which is the second failure
    assert (res.attempted, res.failed) == (2, 2)
    assert "profiles: ValueError" in res.failures[1]


def test_check_solve_flags_wrong_outputs():
    report = driver.solve(get_problem("sphere"), driver.TrParams(),
                          build_model("exact", get_problem("sphere")), eps=1e-6)
    assert workloads.check_solve(report, 1e-6) == []
    report.final_gnorm = 1e-3
    assert "first_order with gnorm" in workloads.check_solve(report, 1e-6)[0]
    report.status, report.final_f = "stalled", math.inf
    reasons = workloads.check_solve(report, 1e-6)
    assert any("non-finite" in r for r in reasons)
    assert any("unknown status" in r for r in reasons)


def test_nonfinite_records_ignore_nan_rho():
    rec = driver.IterationRecord(0, 1.0, 1.0, 1.0, 1.0, math.nan, "unsuccessful", 0.0, 0, 1.0, 0)
    bad = driver.IterationRecord(1, 1.0, 1.0, math.inf, math.inf, 2.0, "very_successful",
                                 0.0, 1, math.inf, 1)
    assert workloads.nonfinite_records([rec, bad, rec]) == 1


# -- seeds and repeatable totals ---------------------------------------------


def test_matrix_totals_repeat_exactly_for_a_fixed_seed(tmp_path):
    a = workloads.build("matrix-exact", 3, tmp_path).run_pass()
    b = workloads.build("matrix-exact", 3, tmp_path).run_pass()
    c = workloads.build("matrix-exact", 0, tmp_path).run_pass()
    assert a.failed == 0 and a.attempted == 97
    assert (a.iterations, a.fevals, a.gevals) == (b.iterations, b.fevals, b.gevals)
    assert a.totals() == b.totals()
    assert a.iterations != c.iterations  # the seed moves the start points


def test_worst_case_seed_semantics():
    specs0 = workloads.worst_case_specs(0)
    assert [(s.p, s.eps, s.c) for s in specs0] == [(0.0, 0.01, 1.0), (0.5, 0.1, 1.0),
                                                    (1.0, 0.33, 1.0)]
    for seed in (1, 2, 12345):
        specs = workloads.worst_case_specs(seed)
        assert specs == workloads.worst_case_specs(seed)
        for spec in specs:
            assert 8999 <= adversarial.k_epsilon(spec) <= 11000


def test_host_speed_sampler_takes_one_sample_per_period():
    sampler = hostspeed.Sampler()
    sampler()
    sampler()  # well within hostspeed.PERIOD_S of the first call
    assert len(sampler.samples) == 1 and sampler.samples[0] > 0
    assert hostspeed.kernel() == hostspeed.kernel()  # fixed work


def test_host_speed_around_a_time_is_the_median_of_the_nearest_samples():
    sampler = hostspeed.Sampler()
    sampler.mids = [float(t) for t in range(20)]
    sampler.samples = [1.0] * 10 + [3.0] * 10  # the host slowed down at t = 10
    assert sampler.around(2.0) == 1.0
    assert sampler.around(16.0) == 3.0
    assert sampler.around(-5.0) == 1.0 and sampler.around(50.0) == 3.0  # clamped windows
    assert sampler.around(9.5) == 3.0  # window 6..14: four fast samples, five slow


def test_host_speed_sampler_catches_up_after_a_long_operation():
    sampler = hostspeed.Sampler()
    sampler()
    sampler._last -= 3.5 * hostspeed.PERIOD_S
    sampler()
    assert len(sampler.samples) == 1 + 3
    sampler._last -= 1000 * hostspeed.PERIOD_S
    sampler()
    assert len(sampler.samples) == 1 + 3 + hostspeed.MAX_BURST


# -- the command and its design record ---------------------------------------


def test_design_record_covers_every_metric_and_workload():
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    assert set(design["per_layer"]) == set(run.PER_LAYER)
    assert set(design["end_to_end"]) == set(run.END_TO_END)
    assert set(design["workloads"]) == set(run.WORKLOADS)
    named = set(run.WORKLOADS) | {"all"}
    for entry in design["per_layer"].values():
        for metric, workload in entry["moves"]:
            assert metric in {**run.END_TO_END, **run.UNBOUNDED} and workload in named
        assert set(entry["no_change"]) <= named and set(entry["zero_on"]) <= named


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_command_prints_one_result_line(trace, names):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-exact", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(names)
    assert all(m["unit"] == names[k] for k, m in result["metrics"].items())
    printed = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")}
    assert set(run.UNBOUNDED) | set(run.END_TO_END) | {"fail_frac", "nonfinite_records"} <= printed

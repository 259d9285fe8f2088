"""Microbenchmark of the driver loop's own cost per iteration
(pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/bench_driver.py

Not part of the tier-1 suite: timings on a small shared host are noisy.
Two cases: the worst-case replay at k_eps = 1e3, a 1-d problem, so the
step is the exact 1-d step on a scripted model and nearly all time is the
driver's own bookkeeping; and rosenbrock with its exact Hessian, where
TCG, the norm and the evaluations share the time. Each round solves with
a fresh model; ``extra_info["us_per_iter"]`` is the median solve time per
iteration.
"""

from trfam import AdversarialSpec, TrParams, build_interpolant, generate, get_problem, solve
from trfam.hessians import ScriptedModel, build_model

ROUNDS = 20


def per_iteration(benchmark, problem, params, make_model, eps, **kwargs):
    def setup():
        return (problem, params, make_model()), dict(eps=eps, **kwargs)

    report = benchmark.pedantic(solve, setup=setup, rounds=ROUNDS, warmup_rounds=1)
    benchmark.extra_info["iterations"] = report.iterations
    benchmark.extra_info["us_per_iter"] = benchmark.stats.stats.median * 1e6 / report.iterations
    return report


def test_worst_case_replay(benchmark):
    spec = AdversarialSpec(eps=10**-1.5, p=0.0)
    inst = generate(spec)
    assert 900 <= inst.k_eps <= 1000
    problem = build_interpolant(inst).as_problem()
    params = TrParams(delta0=inst.delta0)
    report = per_iteration(benchmark, problem, params, lambda: ScriptedModel(inst.B_vals),
                           spec.eps, max_iter=inst.k_eps + 10)
    assert report.iterations == inst.k_eps


def test_rosenbrock_exact(benchmark):
    problem = get_problem("rosenbrock")
    report = per_iteration(benchmark, problem, TrParams(),
                           lambda: build_model("exact", problem), 1e-6)
    assert report.status == "first_order"

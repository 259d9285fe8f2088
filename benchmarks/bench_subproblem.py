"""Layer microbenchmarks for the step solvers and the worst-case lower
bound (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/bench_subproblem.py

Not part of the tier-1 suite: timings on a small shared host are noisy.
The exact model holds a seeded SPD matrix with eigenvalues spread over
[0.1, 10]; the L-BFGS model a full window of memory 5. The radius is large
enough that CG stops on its residual test, not on the boundary. The
re-solve case times what a rejected step costs the step solver: a path
already walked at radius r is walked again at r/2, as the driver does.
"""

import numpy as np
import pytest

from trfam import AdversarialSpec, build_interpolant, generate
from trfam.hessians import ExactHessian, ScriptedModel, build_model
from trfam.subproblem import SteihaugPath, newton_step_1d, solve_tcg

MEMORY = 5
RADIUS = 1e6


def spd_matrix(n, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.geomspace(0.1, 10.0, n)) @ Q.T


def exact_model(n, rng):
    A = spd_matrix(n, rng)
    return ExactHessian(lambda x: A, np.zeros(n))


def lbfgs_model(n, rng):
    m = build_model("lbfgs", dim=n, memory=MEMORY)
    A = np.diag(np.geomspace(0.1, 10.0, n))
    u = rng.standard_normal(n)
    while len(m.pairs) < MEMORY:
        s = rng.standard_normal(n)
        m.update(s, A @ s + 0.1 * (s @ s) * u)
    m.apply(np.ones(n))  # factors built outside the timing
    return m


@pytest.mark.parametrize("mode,n", [("exact", 8), ("exact", 100), ("lbfgs", 100)])
def test_solve_tcg(benchmark, mode, n):
    rng = np.random.default_rng(n)
    model = exact_model(n, rng) if mode == "exact" else lbfgs_model(n, rng)
    g = rng.standard_normal(n)
    step = benchmark(solve_tcg, g, model, RADIUS)
    assert not step.boundary_hit


def test_resolve_after_rejection(benchmark):
    n = 100
    rng = np.random.default_rng(n)
    model = lbfgs_model(n, rng)
    g = rng.standard_normal(n)
    r = 0.5 * np.linalg.norm(solve_tcg(g, model, RADIUS).s)  # the first walk ends on the boundary

    def walked_path():
        path = SteihaugPath(g, model)
        solve_tcg(g, model, r, path)
        return (g, model, 0.5 * r, path), {}

    step = benchmark.pedantic(solve_tcg, setup=walked_path, rounds=2000)
    assert step.boundary_hit


def test_newton_step_1d(benchmark):
    model = ScriptedModel([2.0])
    step = benchmark(newton_step_1d, np.array([-1.0]), model, RADIUS)
    assert step.s[0] == 0.5


def test_lower_bound(benchmark):
    inst = generate(AdversarialSpec(eps=0.01, p=0.0))
    assert inst.k_eps == 10_000
    interp = build_interpolant(inst)
    benchmark(interp.lower_bound)

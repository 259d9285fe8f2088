"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Every tolerance is pinned here, not deferred to calibration.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from trfam import (
    AdversarialSpec,
    BoundInputs,
    TrParams,
    audit_run,
    bound_successful,
    build_model,
    builtin_collection,
    check_gradient,
    choose_tau,
    generate,
    get_problem,
    k_epsilon,
    solve,
    solve_tcg,
    verify_sharpness,
    xi_beta,
)
from trfam.adversarial import bound_inputs
from trfam.bench import (
    default_matrix_specs,
    matrix_to_csv,
    performance_profile,
    read_matrix_csv,
    run_matrix,
)
from trfam.cli import main as cli_main
from trfam.problems import probe_points

from oracles import beats_cauchy, cauchy_point, grid_max_decrease, matrix_model

RESULTS = []


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    RESULTS.append((num, ok))
    assert ok, line


def run_cli_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, json.loads(buf.getvalue())


def sharpness_cli(p, eps, alpha, beta, extra=()):
    t0 = time.perf_counter()
    code, payload = run_cli_json(
        "adversarial", "--p", str(p), "--eps", str(eps),
        "--alpha", str(alpha), "--beta", str(beta), "--verify", "--json", *extra,
    )
    elapsed = time.perf_counter() - t0
    return code, payload, elapsed


def test_criterion_01_sharpness_p0():
    code, payload, elapsed = sharpness_cli(0, 0.5, 0, 0)
    ok = (
        code == 0
        and payload["iterations"] == 4
        and payload["all_very_successful"]
        and payload["max_rho_error"] <= 1e-9
        and payload["final_grad_error"] <= 1e-12
        and payload["strictly_inside"]
        and elapsed < 1.0
    )
    report(1, "sharpness p=0 takes exactly 4 iterations", ok, f"{elapsed:.3f}s")


def test_criterion_02_sharpness_p_half():
    code, payload, elapsed = sharpness_cli(0.5, 0.5, 0, 0)
    ok = (
        code == 0
        and payload["iterations"] == 16
        and payload["all_very_successful"]
        and payload["max_rho_error"] <= 1e-9
        and payload["final_grad_error"] <= 1e-12
        and payload["strictly_inside"]
        and elapsed < 1.0
    )
    report(2, "sharpness p=0.5 takes exactly 16 iterations", ok, f"{elapsed:.3f}s")


def test_criterion_03_sharpness_p1():
    code, payload, elapsed = sharpness_cli(1, 0.5, 1, 1, extra=("--c", "1"))
    ok = (
        code == 0
        and payload["iterations"] == 54
        and payload["iterations"] == math.floor(math.exp(4.0))
        and payload["passed"]
        and elapsed < 1.0
    )
    report(3, "sharpness p=1 takes exactly floor(e^4)=54 iterations", ok, f"{elapsed:.3f}s")


@pytest.fixture(scope="module")
def sweep_runs():
    """All criterion-4 configurations with k_eps <= 1e6, fully solved."""
    runs = []
    t0 = time.perf_counter()
    for eps in (0.9, 0.5, 0.25):
        for p in (0.0, 0.3, 0.5, 0.9):
            spec0 = AdversarialSpec(eps, p)
            try:
                keps = k_epsilon(spec0)
            except ValueError:
                continue
            if keps > 10**6:
                continue
            for a, b in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
                spec = AdversarialSpec(eps, p, 1.0, a, b)
                sharp, rep = verify_sharpness(spec)
                inst = generate(spec)
                runs.append((spec, sharp, rep, inst, bound_inputs(spec, rep)))
    return runs, time.perf_counter() - t0


def test_criterion_04_sharpness_sweep(sweep_runs):
    runs, elapsed = sweep_runs
    ok = len(runs) == 40 and elapsed < 30.0
    for spec, sharp, rep, inst, _ in runs:
        expected = math.floor(spec.eps ** (-2.0 / (1.0 - spec.p)))
        ok = ok and sharp.iterations == expected == inst.k_eps
        ok = ok and bool(np.all(np.diff(inst.f_vals) < 0))
        ok = ok and bool(np.all(inst.f_vals >= 0) and np.all(inst.f_vals <= inst.f_vals[0]))
    report(4, "sweep hits exact k_eps with exact f-sequence invariants", ok,
           f"{len(runs)} runs, {elapsed:.1f}s")


def test_criterion_05_bound_audits(sweep_runs):
    runs, _ = sweep_runs
    violations = 0
    for spec, sharp, rep, inst, inputs in runs:
        audit = audit_run(rep, inputs, "successful_counter")
        if not audit.passed:
            violations += 1
    report(5, "all sweep runs satisfy the successful/unsuccessful bounds",
           violations == 0, f"{len(runs)} audits, {violations} violations")


def test_criterion_06_a_k_lower_bound(sweep_runs):
    runs, _ = sweep_runs
    ok = True
    worst = math.inf
    for spec, sharp, rep, inst, inputs in runs:
        min_a = min(rep.log.a_k)
        worst = min(worst, min_a / inputs.a_min)
        ok = ok and min_a >= inputs.a_min * (1.0 - 1e-10)
    report(6, "a_k never falls below the theoretical a_min", ok, f"min margin {worst:.3f}")


def test_criterion_07_subproblem_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        kind = rng.integers(3)
        if kind == 0:
            A = A @ A.T + 0.1 * np.eye(n)
        elif kind == 1:
            A = A - (np.max(np.linalg.eigvalsh(A)) * 0.5 + 1.0) * np.eye(n)
        g = rng.standard_normal(n)
        while np.linalg.norm(g) < 1e-3:
            g = rng.standard_normal(n)
        radius = float(rng.uniform(0.1, 5.0))

        B = matrix_model(A)
        cp = cauchy_point(g, B, radius)
        gnorm = np.linalg.norm(g)
        gBg = float(g @ (A @ g))
        oracle = grid_max_decrease(gnorm, gBg, radius / gnorm)
        ok = ok and abs(cp.model_decrease - oracle) <= 1e-6 * max(1.0, abs(oracle))

        res = solve_tcg(g, B, radius)
        ok = ok and beats_cauchy(res, g, B, radius)
        ok = ok and np.linalg.norm(res.s) <= radius * (1 + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(7, "Cauchy matches the grid oracle; TCG dominates it in-ball", ok,
           f"200 instances, {elapsed:.1f}s")


def test_criterion_08_exponential_calculator():
    inputs = BoundInputs(
        TrParams(), f0=0.1 * 0.5 * 0.03125, f_low=0.0, a_min=0.03125, mu=0.0, p=1.0, eps=1.0
    )
    b = bound_successful(inputs)
    ok = b.representable is not None
    ok = ok and abs(b.representable - (math.e - 1.0)) <= 1e-12 * (math.e - 1.0)
    # log-domain path agrees with direct evaluation wherever both representable
    for mu in (0.0, 0.5, 1.0):
        for eps in (1.0, 0.5, 0.25):
            from dataclasses import replace

            bb = bound_successful(replace(inputs, mu=mu, eps=eps))
            if bb.representable is not None and bb.representable > 0:
                ok = ok and math.exp(bb.log_value) == pytest.approx(
                    bb.representable, rel=1e-12
                )
    report(8, "exponential-regime bound evaluates to e-1 at the anchor", ok)


def test_criterion_09_xi_beta_oracles():
    geometric = xi_beta(0.5, 2.0, mu=1.0, p=0.5, beta=0.0)
    closed = 1.0 / (1.0 - 0.5 ** (1.0 / 3.0))
    ok = abs(geometric - closed) <= 1e-10 * closed
    ks = np.arange(10**6, dtype=float)
    for mu, p in ((1.0, 1.0), (0.5, 0.5), (2.0, 1.0)):
        got = xi_beta(0.5, 2.0, mu=mu, p=p, beta=1.0)
        brute = float(np.sum(0.5 ** (ks / 3.0) / (1.0 + mu * (1.0 + ks**p))))
        ok = ok and abs(got - brute) <= 1e-9 * brute
    report(9, "xi_beta matches geometric and brute-force oracles", ok)


def test_criterion_10_tau_selection():
    ok = choose_tau(0.5, 2.0) == 3
    rng = np.random.default_rng(1)
    for _ in range(20):
        g2 = float(rng.uniform(0.05, 0.9))
        g4 = float(rng.uniform(1.0, 4.0))
        tau = choose_tau(g2, g4)
        ok = ok and g4 * g2 ** (tau - 1) < 1.0
        ok = ok and (tau == 1 or not g4 * g2 ** (tau - 2) < 1.0)
    report(10, "tau selection satisfies the strict defining inequality", ok)


def test_criterion_11_solver_sanity():
    t0 = time.perf_counter()
    sphere = get_problem("sphere")
    r1 = solve(sphere, TrParams(), build_model("exact", sphere), eps=1e-6)
    ok = r1.status == "first_order" and r1.iterations <= 3
    rosen = get_problem("rosenbrock")
    r2 = solve(rosen, TrParams(), build_model("exact", rosen), eps=1e-6)
    ok = ok and r2.status == "first_order" and r2.iterations <= 200
    matrix = run_matrix(default_matrix_specs())
    solved = sum(
        any(matrix.cells[(p, v)].solved for v in matrix.variants)
        for p in matrix.problems
    )
    frac = solved / len(matrix.problems)
    elapsed = time.perf_counter() - t0
    ok = ok and frac >= 0.9 and elapsed < 60.0
    report(11, "sphere<=3, rosenbrock<=200, >=90% of collection solved", ok,
           f"solved {solved}/{len(matrix.problems)}, {elapsed:.1f}s")


def test_criterion_12_gradient_validation():
    worst = 0.0
    for prob in builtin_collection():
        for x in [prob.x0] + probe_points(prob, count=10, seed=0):
            worst = max(worst, check_gradient(prob, x, 1e-6))
    report(12, "all built-in gradients validate to 1e-5", worst <= 1e-5,
           f"worst {worst:.2e}")


def test_criterion_13_profile_properties(tmp_path):
    specs = default_matrix_specs()
    m1 = run_matrix(specs)
    ok = True
    for metric in ("fevals", "gevals", "time"):
        for curve in performance_profile(m1, metric):
            ok = ok and bool(np.all(np.diff(curve.values) >= 0))
            ok = ok and bool(np.all(curve.values <= 1.0))
            for tau, val in zip(curve.taus, curve.values):
                ok = ok and curve.at(float(tau)) == val  # right-continuity
    path = tmp_path / "matrix.csv"
    path.write_text(matrix_to_csv(m1))
    back = read_matrix_csv(path)
    ok = ok and back.cells == m1.cells

    m2 = run_matrix(specs)

    def strip_time(text):
        return "\n".join(
            ",".join(c for i, c in enumerate(line.split(",")) if i != 5)
            for line in text.splitlines()
        )

    ok = ok and strip_time(matrix_to_csv(m1)) == strip_time(matrix_to_csv(m2))
    report(13, "profiles are monotone step functions; matrix round-trips", ok)

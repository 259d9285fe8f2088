"""The scripts under benchmarks/ still run against the package, and the
package's benchmark recipes agree with perfbench, which restates them."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trfam import adversarial, bench, builtin_collection, driver
from trfam.hessians import ScriptedModel, build_model

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_paper_scale_replay_passes():
    done = run("benchmarks/paper_scale.py", "--p", "0", "--eps", "0.1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["passed"] is True
    assert result["audit_successful_counter"] is True
    assert result["audit_iteration_counter"] is True
    assert result["k_eps"] == 99


def test_compact_accuracy_smoke():
    done = run("benchmarks/compact_accuracy.py", "--seed", "0", "--cell", "beale/lsr1/1_1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(ln.startswith("off beale/lsr1/1_1 ") for ln in lines[:-1])
    products, off = lines[-1].split(", ")
    assert products.startswith("products: ") and int(products.split()[-1]) > 0
    assert off.startswith("off by more than 1e-09 relative: ")
    assert int(off.split()[-1]) == len(lines) - 1


def test_kernels_smoke(monkeypatch):
    # unset, the thread count is pinned to 1 before numpy loads its BLAS
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    done = run("benchmarks/kernels.py", "--number", "1", "--repeat", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "OPENBLAS_NUM_THREADS=1;" in lines[0]
    assert lines[1] == "call n width numpy_us trfam_us"
    assert {ln.split()[0] for ln in lines[2:]} == {
        "qr", "solve", "eigvalsh", "factors", "shed", "sW", "RMR", "Kv", "Wu", "vv", "Hv", "JTr",
        "JTJ", "hess"}
    # one whole window build per window shape, and one of a window that
    # sheds its oldest pair, each checked against numpy first
    for call in ("factors", "shed"):
        assert [tuple(ln.split()[1:3]) for ln in lines[2:] if ln.startswith(call + " ")] == [
            (str(n), str(width)) for n in (4, 10, 30, 100) for width in (5, 10)]
    # one hess row per built-in problem with a Hessian, timed against the
    # element-by-element form of oracles.HESSIAN_LOOPS where there is one
    hess = {width: ref_us for call, _, width, ref_us, _ in map(str.split, lines[2:])
            if call == "hess"}
    assert sorted(hess) == sorted(p.name for p in builtin_collection() if p.eval_hess)
    assert {name for name, ref_us in hess.items() if ref_us != "-"} == {
        "ext_rosenbrock", "dixon_price", "engval1", "broyden_tridiagonal", "trigonometric"}


def test_no_matmul_operator_in_the_package():
    # trfam forms every product with ndarray.dot, the same BLAS call as `@`
    # without the matmul gufunc's dispatch; TestKernels in test_hessians.py
    # holds the two equal bit for bit
    for path in sorted((ROOT / "src" / "trfam").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult)]
        assert not lines, f"{path.name}: @ at lines {lines}"


def test_no_unused_imports():
    # an imported name that no expression reads; an __init__.py re-exports
    # what it imports, and a __future__ import binds no name
    unused = []
    for path in sorted(p for top in ("src", "benchmarks", "demos", "tests")
                       for p in (ROOT / top).rglob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert not unused, unused


def load_script(monkeypatch, name="digests"):
    """benchmarks/<name>.py as a module; the sys.path entries it adds are
    dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def seed0_output() -> str:
    """What ``benchmarks/digests.py --seed 0 --perturb 0`` prints, solved
    once for every pin below."""
    with (pytest.MonkeyPatch.context() as monkeypatch,
          contextlib.redirect_stdout(io.StringIO()) as out):
        assert load_script(monkeypatch).main(["--seed", "0", "--perturb", "0"]) == 0
    return out.getvalue()


def sha256_of_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestMatrixExactDigest:
    """All 96 seed-0 matrix-exact cells pinned byte for byte, solved by
    ``benchmarks/digests.py`` as the benchmark solves them. The pin is the
    SHA-256 of their digest lines joined by newlines, the first 96 lines of
    ``digests.py --seed 0``: each line holds the digest of the cell's
    ``log_to_csv``, its status and its iterations. The logs go through BLAS
    and LAPACK (``B v`` and ``eigvalsh``), so the pin holds for the numpy
    build it was taken with."""

    DIGEST = "f907a26ad6241dce997b9da483b658ef4deaa6095c6f39839f5dbaa0e55e1f5d"

    def test_seed0_digest_pinned(self, seed0_output):
        lines = seed0_output.splitlines()[:96]
        assert all(ln.startswith("matrix-exact ") for ln in lines)
        assert sha256_of_lines(lines) == self.DIGEST


class TestMatrixQnDigest:
    """All 96 seed-0 matrix-qn cells (L-BFGS and L-SR1) pinned as
    ``TestMatrixExactDigest`` pins matrix-exact: lines 97-192 of
    ``digests.py --seed 0``. The compact factors go through LAPACK (QR,
    ``solve`` and ``eigvalsh``), so the pin holds for the numpy and LAPACK
    build it was taken with."""

    DIGEST = "05b9a1460f60f261b5d015065d18a676eb3b4bdc958747b70ffba55eac9da5a3"

    def test_seed0_digest_pinned(self, seed0_output):
        lines = seed0_output.splitlines()[96:192]
        assert all(ln.startswith("matrix-qn ") for ln in lines)
        assert sha256_of_lines(lines) == self.DIGEST


class TestWorstCaseDigest:
    """The seed-0 worst-case workload pinned as the matrix workloads are:
    the SHA-256 of its three replay lines and six audit lines, lines
    193-195 and 197-202 of ``digests.py --seed 0``, joined by newlines. The
    replays use scalar IEEE arithmetic, but the audits go through numpy
    reductions and the C math library, so the pin holds for the builds it
    was taken with."""

    DIGEST = "3687ff45bd33a05790066b19a4b4891f4b3ee26a717e95d35acd5cf12cb21806"

    def test_seed0_digest_pinned(self, seed0_output):
        lines = seed0_output.splitlines()
        worst, audits = lines[192:195], lines[196:202]
        assert all(ln.startswith("worst-case ") for ln in worst)
        assert all(ln.startswith("audit ") for ln in audits)
        assert sha256_of_lines(worst + audits) == self.DIGEST


class TestRegimeDigest:
    """The seed-0 runs in the family's other regimes pinned as the
    benchmark's own are: history mode on all 192 matrix cells, then the
    update on rejected steps, alone and in history mode, on the 96
    matrix-qn cells. Their 384 lines, 203-586 of ``digests.py --seed 0``,
    follow the audits, and line 587 is the SHA-256 of them joined by
    newlines, the pin. The pin holds for the builds
    ``TestMatrixQnDigest`` names."""

    DIGEST = "b851895d6a25843db388908994996d6585d6e747c87a7f1e2f275344ef63bb6a"

    def test_seed0_digest_pinned(self, seed0_output):
        lines = seed0_output.splitlines()
        regimes = Counter((ln.split()[0], ln.split()[1].split("/", 3)[3]) for ln in lines[202:586])
        assert regimes == {("matrix-exact", "history"): 96, ("matrix-qn", "history"): 96,
                           ("matrix-qn", "unsuccessful"): 96,
                           ("matrix-qn", "history+unsuccessful"): 96}
        assert sha256_of_lines(lines[202:586]) == self.DIGEST
        assert lines[586] == f"all {self.DIGEST}"


class TestDigestsAgainst:
    BEFORE = [
        "matrix-exact a/exact/0_0 d1 e1 first_order 5 6 6",
        "matrix-qn b/lbfgs/1_1 d2 e2 max_iter 500 501 480",
        "all x",
        "audit p=0,c=1,eps=0.1 successful_counter h1",
    ]

    def test_identical_outputs(self, monkeypatch):
        digests = load_script(monkeypatch)
        assert digests.changes(self.BEFORE, self.BEFORE) == ["no changed cells"]

    def test_changed_cells_and_audits(self, monkeypatch):
        digests = load_script(monkeypatch)
        after = [
            "matrix-exact a/exact/0_0 d9 e1 first_order 5 6 6",
            "matrix-qn b/lbfgs/1_1 d8 e8 first_order 40 41 35",
            "matrix-qn c/lsr1/0_0 d3 e3 first_order 7 8 8",
            "all y",
            "audit p=0,c=1,eps=0.1 successful_counter h2",
        ]
        assert digests.changes(self.BEFORE, after) == [
            "matrix-exact a/exact/0_0 first_order 5 -> first_order 5 (rho only)",
            "matrix-qn b/lbfgs/1_1 max_iter 500 -> first_order 40",
            "matrix-qn c/lsr1/0_0 - -> first_order 7",
            "audit p=0,c=1,eps=0.1 successful_counter changed",
        ]

    def test_verdicts_from_a_floor_file(self, monkeypatch, tmp_path):
        # before.txt as digests.py --perturb 60 writes it: the floor lines
        # come last; d/lsr1/1_1 has none
        digests = load_script(monkeypatch)
        (tmp_path / "before.txt").write_text("\n".join([
            "matrix-qn b/lbfgs/1_1 d2 e2 first_order 40 41 35",
            "matrix-qn c/lsr1/0_0 d3 e3 first_order 7 8 8",
            "matrix-qn d/lsr1/1_1 d4 e4 max_iter 500 501 480",
            "all x",
            "floor matrix-qn b/lbfgs/1_1 first_order 40 | first_order:58 max_iter:2 | 38 40 500",
            "floor matrix-qn c/lsr1/0_0 first_order 7 | first_order:60 | 7 7 9",
            "floor fragile cells: 1 of 2",
            "floor   matrix-qn b/lbfgs/1_1 first_order -> max_iter 2/60",
            "floor solved: unperturbed 2, perturbed min median max 1 2 2",
            "floor total iterations: unperturbed 47, perturbed min median max 45 47 509",
        ]) + "\n")
        after = [
            "matrix-qn b/lbfgs/1_1 d8 e8 max_iter 500 501 480",
            "matrix-qn c/lsr1/0_0 d5 e3 first_order 7 8 8",
            "matrix-qn d/lsr1/1_1 d6 e6 max_iter 500 501 480",
            "all y",
        ]
        before = (tmp_path / "before.txt").read_text().splitlines()
        assert digests.changes(before, after) == [
            "matrix-qn b/lbfgs/1_1 first_order 40 -> max_iter 500 fragile",
            "matrix-qn c/lsr1/0_0 first_order 7 -> first_order 7 (rho only) stable",
            "matrix-qn d/lsr1/1_1 max_iter 500 -> max_iter 500 no floor",
        ]
        assert digests.changes(before, before) == ["no changed cells"]


class TestFloor:
    def test_floor_lines_of_two_cells(self, monkeypatch):
        digests = load_script(monkeypatch)
        workloads = digests.workloads
        runs = [(name, cell, "", digests.run_cell(cell))
                for name, wl in (("matrix-exact", workloads.matrix_exact(0, None)),
                                 ("matrix-qn", workloads.matrix_qn(0)))
                for cell in wl.cells
                if f"{name} {cell.label}" in ("matrix-exact rosenbrock/exact/0_0",
                                              "matrix-qn beale/lsr1/1_1")]
        assert list(digests.floor_lines(runs, 1)) == ["floor " + ln for ln in [
            "matrix-exact rosenbrock/exact/0_0 first_order 39 | first_order:1 | 39 39 39",
            "matrix-qn beale/lsr1/1_1 first_order 35 | first_order:1 | 35 35 35",
            "fragile cells: 0 of 2",
            "solved: unperturbed 2, perturbed min median max 2 2 2",
            "total iterations: unperturbed 74, perturbed min median max 74 74 74",
        ]]

    def test_regime_runs_are_cells_of_their_own(self, monkeypatch):
        # floor lines name a regime run by its label, and --against judges
        # its line against them
        digests = load_script(monkeypatch)
        cell = next(c for c in digests.workloads.matrix_qn(0).cells
                    if c.label == "beale/lsr1/1_1")
        runs = [("matrix-qn", cell, regime, digests.run_cell(cell, regime=regime))
                for regime in ("history", "history+unsuccessful")]
        floor = list(digests.floor_lines(runs, 1))
        assert floor[:2] == ["floor matrix-qn beale/lsr1/1_1/" + ln for ln in [
            "history first_order 23 | first_order:1 | 23 23 23",
            "history+unsuccessful first_order 35 | first_order:1 | 35 35 35"]]
        lines = [digests.line(name, digests.label(c, regime), report)
                 for name, c, regime, report in runs]
        after = [lines[0], lines[1].replace(" first_order 35 ", " max_iter 35 ")]
        assert digests.changes(lines + floor, after) == [
            "matrix-qn beale/lsr1/1_1/history+unsuccessful first_order 35 -> max_iter 35 stable"]

    def test_perturb_0_prints_the_digests_alone(self, seed0_output):
        # the whole seed-0 output, 192 matrix lines, 3 worst-case lines,
        # "all", 6 audits, 384 regime lines and their "all", pinned for the
        # builds TestMatrixExactDigest names: a saved output of a commit
        # without --perturb still compares
        assert len(seed0_output.splitlines()) == 587
        assert hashlib.sha256(seed0_output.encode()).hexdigest() == (
            "6f6a797555c618aeebc4ca2ffce901916a1a1843161e487fc042457f33920eb0")


class TestCalls:
    def test_worst_case_row_counts_driver_solve_alone(self, monkeypatch):
        # benchmarks/calls.py's row of a replay with k_eps = 1,000: the calls
        # a hook sees around driver.solve alone, as TestCallCount counts them,
        # and none of verify_sharpness's instance, bounds or checks
        calls = load_script(monkeypatch, "calls")
        spec = adversarial.AdversarialSpec(10**-1.5, 0.0)
        inst = adversarial.generate(spec)
        problem = adversarial.build_interpolant(inst).as_problem()
        params = driver.TrParams(alpha=spec.alpha, beta=spec.beta, delta0=inst.delta0)
        model = ScriptedModel(inst.B_vals)
        events = Counter()
        code = driver.solve.__code__

        def hook(frame, event, arg):
            events[event] += 1
            events["solve's own c_call"] += event == "c_call" and frame.f_code is code

        sys.setprofile(hook)
        try:
            report = driver.solve(problem, params, model, eps=spec.eps, max_iter=inst.k_eps + 10)
        finally:
            sys.setprofile(None)  # a C call the hook sees, from this frame
        _, python, c, own = calls.solve_calls(lambda: [adversarial.verify_sharpness(spec)[1]])
        assert (python, c, own) == (
            events["call"], events["c_call"] - 1, events["solve's own c_call"])
        row = calls.worst_case_row("k1000", spec).split()
        assert row == ["worst-case", "k1000", "1000", f"{python / 1000:.2f}", f"{c / 1000:.2f}",
                       f"{own / 1000:.2f}", platform.python_version(), np.__version__]
        assert report.iterations == 1000 and python / 1000 < 12.5


class TestRecipesAgreeWithPerfbench:
    def test_solve_cell_matches_a_matrix_pass(self, monkeypatch):
        workloads = load_script(monkeypatch).workloads
        spec = bench.RunSpec("sphere", 0.0, 0.0)
        assert (spec.memory, spec.eps, spec.eval_budget) == (
            workloads.MEMORY, workloads.EPS, workloads.EVAL_BUDGET)
        # seed 7 moves every start; three of these cells end delta_underflow
        cells = [cell for wl in (workloads.matrix_exact(7, None), workloads.matrix_qn(7))
                 for cell in wl.cells
                 if cell.problem.name in ("beale", "rastrigin", "styblinski_tang")]
        reports = []
        for cell in cells:
            spec = bench.RunSpec(cell.problem.name, cell.alpha, cell.beta, cell.hessian,
                                 max_iter=cell.max_iter)
            model = build_model(spec.hessian, cell.problem, memory=spec.memory)
            reports.append(bench.solve_cell(spec, cell.problem, model))
        res = workloads.MatrixWorkload(cells, []).run_pass()
        assert res.failed == 0 and res.solved < len(cells)
        assert [res.iterations, res.fevals, res.gevals, res.solved] == [
            sum(r.iterations for r in reports), sum(r.evals.n_f for r in reports),
            sum(r.evals.n_g for r in reports), sum(r.status == "first_order" for r in reports)]

    def test_stop_statuses_match_perfbench(self, monkeypatch):
        workloads = load_script(monkeypatch).workloads
        assert sorted(driver.STOP_STATUSES) == sorted(workloads.DRIVER_STATUSES)

    def test_bound_inputs_match_the_worst_case_case(self, monkeypatch):
        workloads = load_script(monkeypatch).workloads
        sharp, report = adversarial.verify_sharpness(workloads.WARM_SPEC)
        inputs = adversarial.bound_inputs(sharp, report)
        case = workloads.Case.build(workloads.WARM_SPEC)
        assert (inputs.f0, inputs.f_low, inputs.L) == (case.f0, case.f_low, case.L)

    def test_traced_worst_case_pass_keeps_the_totals(self, monkeypatch):
        # Tracer.patched() reads each trfam name it swaps from its owner's
        # __dict__, so renaming one would end perfbench/run.py --trace 1 in
        # a KeyError
        workloads = load_script(monkeypatch).workloads
        import tracing  # perfbench/ is on sys.path now
        wl = workloads.WorstCaseWorkload([workloads.Case.build(workloads.WARM_SPEC)], None)
        plain = wl.run_pass()
        tracer = tracing.Tracer()
        traced = wl.run_pass(tracer)
        names = {span[0] for span in tracer.take()[0]}
        assert plain.failed == 0 and traced.totals() == plain.totals()
        # the swapped-in names were the ones called: the solve, its step and
        # the scripted model's norm
        assert {"driver.solve", "subproblem.newton_step_1d", "hessians.operator_norm"} <= names

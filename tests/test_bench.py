"""Tests for the benchmark matrix, profiles, and their serialization."""

import numpy as np
import pytest

from trfam import bench, hessians
from trfam.bench import (
    CellResult,
    CostMatrix,
    RunSpec,
    default_matrix_specs,
    emit,
    matrix_to_csv,
    performance_profile,
    profile_to_csv,
    read_matrix_csv,
    run_matrix,
)

from test_driver import BUDGET_RULES

SMALL = ["sphere", "rosenbrock", "beale", "himmelblau", "booth"]


def small_specs(**kw):
    return default_matrix_specs(problems=SMALL, **kw)


def toy_matrix(costs_by_variant):
    """Build a CostMatrix by hand; costs_by_variant: {variant: {problem: cost|None}}."""
    variants = sorted(costs_by_variant)
    problems = sorted({p for d in costs_by_variant.values() for p in d})
    m = CostMatrix(problems, variants)
    for v, d in costs_by_variant.items():
        for p, c in d.items():
            if c is None:
                m.cells[(p, v)] = CellResult("max_iter", 1, 1, 1.0, 1)
            else:
                m.cells[(p, v)] = CellResult("first_order", int(c), int(c), float(c), 1)
    return m


class TestRunMatrix:
    def test_shape_and_solved(self):
        matrix = run_matrix(small_specs())
        assert len(matrix.problems) == 5
        assert len(matrix.variants) == 4
        assert len(matrix.cells) == 20
        assert matrix.cells[("sphere", "0_0")].solved

    def test_budget_exhaustion_marks_failure(self):
        specs = [RunSpec("rosenbrock", 0.0, 0.0, eval_budget=2)]
        matrix = run_matrix(specs)
        cell = matrix.cells[("rosenbrock", "0_0")]
        assert not cell.solved
        assert cell.status == "eval_budget"

    @pytest.mark.parametrize("budget", [{"max_iter": -1}, {"eval_budget": -1}])
    def test_negative_budget_rejected(self, budget):
        name = next(iter(budget))
        with pytest.raises(ValueError, match=BUDGET_RULES[name]):
            RunSpec("sphere", 0.0, 0.0, **budget)
        least = {"max_iter": 0, "eval_budget": 2}[name]  # the least each accepts
        assert getattr(RunSpec("sphere", 0.0, 0.0, **{name: least}), name) == least

    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            run_matrix([RunSpec("nope", 0.0, 0.0)])

    def test_repeated_cell_rejected_before_any_solve(self, monkeypatch):
        # (1.0, 0) and (1, 0) are one variant, 1_0: four specs, one cell
        solved = []
        monkeypatch.setattr(bench, "solve_cell", lambda *args: solved.append(args))
        specs = default_matrix_specs(variants=((1.0, 0.0), (1, 0)), problems=["sphere", "sphere"])
        assert len(specs) == 4
        with pytest.raises(ValueError, match="^a second cell for sphere, 1_0$"):
            run_matrix(specs)
        assert solved == []

    @pytest.mark.parametrize("exc", [bench.SolveError])
    def test_breakdown_is_an_error_cell(self, monkeypatch, tmp_path, exc):
        solve = bench.solve

        def breaks_on_beale(problem, *args, **kwargs):
            if problem.name == "beale":
                raise exc("breakdown")
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(bench, "solve", breaks_on_beale)
        matrix = run_matrix(small_specs())
        assert len(matrix.cells) == 20
        for variant in matrix.variants:
            assert matrix.cells[("beale", variant)] == CellResult("error", 0, 0, 0.0, 0)
            assert matrix.cells[("sphere", variant)].solved
        for metric in ("fevals", "gevals", "time"):
            for curve in performance_profile(matrix, metric):
                assert curve.values[-1] <= 4 / 5  # beale unsolved everywhere
        emit(matrix, {"fevals": performance_profile(matrix, "fevals")}, tmp_path)
        back = read_matrix_csv(tmp_path / "matrix.csv")
        assert back.cells == matrix.cells

    def test_failed_exact_norm_is_an_error_cell(self, monkeypatch):
        # a failed eigvalsh fills its output with NaN; the norm raises SolveError
        monkeypatch.setattr(hessians, "_eigvalsh", lambda A: np.full(len(A), np.nan))
        matrix = run_matrix([RunSpec("rosenbrock", 0.0, 1.0)])
        assert list(matrix.cells.values()) == [CellResult("error", 0, 0, 0.0, 0)]

    def test_costs_positive(self):
        matrix = run_matrix(small_specs())
        for cell in matrix.cells.values():
            assert cell.cost_f > 0 and cell.cost_g > 0


class TestPerformanceProfile:
    def test_single_variant_all_solved(self):
        m = toy_matrix({"a": {"p1": 3, "p2": 5}})
        (curve,) = performance_profile(m)
        assert curve.at(1.0) == 1.0

    def test_two_variants_one_problem(self):
        m = toy_matrix({"a": {"p": 1}, "b": {"p": 2}})
        curves = {c.variant: c for c in performance_profile(m)}
        assert curves["a"].at(1.0) == 1.0
        assert curves["b"].at(1.0) == 0.0
        assert curves["b"].at(1.9999) == 0.0
        assert curves["b"].at(2.0) == 1.0

    def test_two_variants_two_problems(self):
        m = toy_matrix({"a": {"p1": 1, "p2": 4}, "b": {"p1": 2, "p2": 2}})
        curves = {c.variant: c for c in performance_profile(m)}
        assert curves["a"].at(1.0) == 0.5
        assert curves["b"].at(1.0) == 0.5
        assert curves["a"].at(2.0) == 1.0
        assert curves["b"].at(2.0) == 1.0

    def test_failures_get_infinite_ratio(self):
        m = toy_matrix({"a": {"p1": 1, "p2": None}, "b": {"p1": 2, "p2": 3}})
        curves = {c.variant: c for c in performance_profile(m)}
        assert curves["a"].values[-1] == 0.5  # terminal value = solved fraction
        assert curves["b"].values[-1] == 1.0

    def test_all_failure_rejected(self):
        m = toy_matrix({"a": {"p1": None}, "b": {"p1": None}})
        with pytest.raises(ValueError):
            performance_profile(m)

    def test_step_properties_on_real_matrix(self):
        matrix = run_matrix(small_specs())
        for metric in ("fevals", "gevals", "time"):
            for curve in performance_profile(matrix, metric):
                assert np.all(np.diff(curve.values) >= 0)
                assert np.all(curve.values <= 1.0)
                assert curve.taus[0] == 1.0
                # right-continuity: value at the breakpoint includes the jump
                for tau, val in zip(curve.taus, curve.values):
                    assert curve.at(float(tau)) == val


class TestSerialization:
    def test_matrix_roundtrip(self, tmp_path):
        matrix = run_matrix(small_specs())
        path = tmp_path / "matrix.csv"
        path.write_text(matrix_to_csv(matrix))
        back = read_matrix_csv(path)
        assert back.problems == matrix.problems
        assert back.variants == matrix.variants
        assert back.cells == matrix.cells

    def test_determinism_excluding_time(self):
        specs = small_specs()
        m1 = run_matrix(specs)
        m2 = run_matrix(specs)

        def strip_time(text):
            return "\n".join(
                ",".join(col for i, col in enumerate(line.split(",")) if i != 5)
                for line in text.splitlines()
            )

        assert strip_time(matrix_to_csv(m1)) == strip_time(matrix_to_csv(m2))

    def test_profile_csv_layout(self):
        m = toy_matrix({"a": {"p1": 1, "p2": 4}, "b": {"p1": 2, "p2": 2}})
        curves = performance_profile(m)
        text = profile_to_csv(curves)
        lines = text.strip().splitlines()
        assert lines[0] == "tau,a,b"
        assert [float(v) for v in lines[1].split(",")] == [1.0, 0.5, 0.5]

    def test_emit_files_and_svg(self, tmp_path):
        matrix = run_matrix(small_specs(variants=((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))))
        profiles = {m: performance_profile(matrix, m) for m in ("fevals", "gevals", "time")}
        written = emit(matrix, profiles, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == [
            "matrix.csv",
            "profile_fevals.csv",
            "profile_fevals.svg",
            "profile_gevals.csv",
            "profile_gevals.svg",
            "profile_time.csv",
            "profile_time.svg",
        ]
        svg = (tmp_path / "out" / "profile_fevals.svg").read_text()
        assert svg.count("<polyline") == 4
        for variant in matrix.variants:
            assert f">{variant}</text>" in svg
        assert "xmlns" in svg and "href" not in svg  # self-contained

    def test_emit_rejects_empty_profiles(self, tmp_path):
        matrix = run_matrix(small_specs())
        with pytest.raises(ValueError):
            emit(matrix, {}, tmp_path)


def test_variant_labels():
    assert RunSpec("sphere", 0.0, 0.0).variant == "0_0"
    assert RunSpec("sphere", 1.0, 0.0).variant == "1_0"
    assert RunSpec("sphere", 0.5, 1.0).variant == "0.5_1"

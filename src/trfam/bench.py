"""Benchmark harness: run the variant matrix and emit performance profiles.

A run counts as solved only when it reaches the gradient tolerance within
its iteration and evaluation budgets. Profiles follow the usual
cost-ratio construction: r = cost / best cost on that problem, with
failures assigned an infinite ratio, and the curve reports the fraction of
problems whose ratio is within tau.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .driver import STOP_STATUSES, SolveError, SolveReport, TrParams, check_budgets, solve
from .hessians import DEFAULT_MEMORY, build_model
from .problems import Problem, builtin_collection, get_problem

METRICS = ("fevals", "gevals", "time")

# (alpha, beta) of the default matrix: each corner of [0, 1]^2.
DEFAULT_VARIANTS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class RunSpec:
    """One benchmark cell; its defaults are those of ``trfam bench``."""

    problem: str
    alpha: float
    beta: float
    hessian: str = "exact"
    memory: int = DEFAULT_MEMORY
    eps: float = 1e-6
    max_iter: int = 10_000
    eval_budget: int = 100_000

    def __post_init__(self):
        TrParams(alpha=self.alpha, beta=self.beta)  # raises for a non-member of the family
        check_budgets(self.max_iter, self.eval_budget)

    @property
    def variant(self) -> str:
        return f"{_fmt_ab(self.alpha)}_{_fmt_ab(self.beta)}"


def _fmt_ab(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:g}"


@dataclass(frozen=True)
class CellResult:
    status: str
    cost_f: int
    cost_g: int
    time_ms: float
    iters: int

    @property
    def solved(self) -> bool:
        return self.status == "first_order"


@dataclass
class CostMatrix:
    problems: list[str]
    variants: list[str]
    cells: dict[tuple[str, str], CellResult] = field(default_factory=dict)

    def cost(self, problem: str, variant: str, metric: str) -> float:
        cell = self.cells[(problem, variant)]
        if not cell.solved:
            return math.inf
        if metric == "fevals":
            return float(cell.cost_f)
        if metric == "gevals":
            return float(cell.cost_g)
        if metric == "time":
            return cell.time_ms
        raise ValueError(f"unknown metric {metric!r}")


def solve_cell(spec: RunSpec, problem: Problem, model, **regime) -> SolveReport:
    """Solve one cell as ``trfam bench`` does: the family's default
    constants with ``spec``'s alpha and beta, and ``spec``'s eps, max_iter
    and eval_budget. The caller builds ``problem`` and ``model``, so a tool
    can move the start or wrap the model instance; ``regime`` sets other
    ``TrParams`` fields (``radius_mode``, ``update_on_unsuccessful``), which
    ``trfam bench`` leaves at their defaults."""
    params = TrParams(alpha=spec.alpha, beta=spec.beta, **regime)
    return solve(problem, params, model, eps=spec.eps, max_iter=spec.max_iter,
                 eval_budget=spec.eval_budget)


def run_matrix(specs: list[RunSpec]) -> CostMatrix:
    """Execute every spec; cells are keyed (problem, variant), sorted.

    A solve that breaks down, raising ``SolveError``, does not stop the
    matrix: its cell gets status "error" with zero costs, which profiles
    count as unsolved. Two specs of one cell raise ValueError before any solve.
    """
    if not specs:
        raise ValueError("empty spec list")
    specs = sorted(specs, key=lambda s: (s.problem, s.variant))
    for a, b in zip(specs, specs[1:]):
        if (a.problem, a.variant) == (b.problem, b.variant):
            raise ValueError(f"a second cell for {b.problem}, {b.variant}")
    problems = sorted({s.problem for s in specs})
    variants = sorted({s.variant for s in specs})
    matrix = CostMatrix(problems, variants)
    for spec in specs:
        prob = get_problem(spec.problem)
        model = build_model(spec.hessian, prob, memory=spec.memory)
        key = (spec.problem, spec.variant)
        t0 = time.perf_counter()
        try:
            report = solve_cell(spec, prob, model)
        except SolveError:
            matrix.cells[key] = CellResult("error", 0, 0, 0.0, 0)
            continue
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        matrix.cells[key] = CellResult(
            status=report.status,
            cost_f=report.evals.n_f,
            cost_g=report.evals.n_g,
            time_ms=elapsed_ms,
            iters=report.iterations,
        )
    return matrix


@dataclass
class ProfileCurve:
    variant: str
    taus: np.ndarray
    values: np.ndarray

    def at(self, tau: float) -> float:
        idx = np.searchsorted(self.taus, tau, side="right") - 1
        return float(self.values[idx]) if idx >= 0 else 0.0


def performance_profile(matrix: CostMatrix, metric: str = "fevals") -> list[ProfileCurve]:
    """Cost-ratio step functions, one per variant, right-continuous and
    non-decreasing with terminal value = solved fraction; ValueError for a
    ratio past the float range."""
    n_prob = len(matrix.problems)
    ratios: dict[str, list[float]] = {v: [] for v in matrix.variants}
    any_solved = False
    for prob in matrix.problems:
        costs = {v: matrix.cost(prob, v, metric) for v in matrix.variants}
        best = min(costs.values())
        if not math.isfinite(best):
            continue  # nobody solved it; counts only in the denominator
        any_solved = True
        for v, c in costs.items():
            if math.isfinite(c):
                ratios[v].append(c / best)
                if ratios[v][-1] == math.inf:
                    raise ValueError(f"a {metric} ratio on {prob} is out of the float range")
    if not any_solved:
        raise ValueError("no variant solved any problem")
    breakpoints = sorted({1.0} | {r for rs in ratios.values() for r in rs})
    taus = np.array(breakpoints)
    curves = []
    for v in matrix.variants:
        rv = np.array(sorted(ratios[v]))
        values = np.searchsorted(rv, taus, side="right") / n_prob
        curves.append(ProfileCurve(v, taus, values))
    return curves


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MATRIX_HEADER = "problem,variant,status,cost_f,cost_g,time_ms,iters"
_MATRIX_FIELDS = _MATRIX_HEADER.split(",")


def matrix_to_csv(matrix: CostMatrix) -> str:
    lines = [_MATRIX_HEADER]
    for key in sorted(matrix.cells):
        c = matrix.cells[key]
        lines.append(
            f"{key[0]},{key[1]},{c.status},{c.cost_f},{c.cost_g},{c.time_ms:.17g},{c.iters}"
        )
    return "\n".join(lines) + "\n"


def read_matrix_csv(path) -> CostMatrix:
    """Read a ``matrix_to_csv`` file; ValueError, naming the file and line,
    for a row without 7 fields, with a status no run writes, or with a count
    that is not an integer or a time that is not a number, for a missing or
    repeated cell, or for a solved one with costs no solve has."""
    text = Path(path).read_text().rstrip().splitlines()
    if not text or text[0] != _MATRIX_HEADER:
        raise ValueError(f"{path}: not a cost-matrix CSV")
    cells: dict[tuple[str, str], CellResult] = {}
    for lineno, line in enumerate(text[1:], start=2):
        row = line.split(",")
        if len(row) != len(_MATRIX_FIELDS):
            raise ValueError(f"{path}, line {lineno}: {len(row)} fields, "
                             f"not {len(_MATRIX_FIELDS)}")
        prob, variant, status, *numbers = row
        if status not in STOP_STATUSES and status != "error":
            raise ValueError(f"{path}, line {lineno}: status {status!r} is not one "
                             "a bench run writes")
        values = []
        for name, kind, value in zip(_MATRIX_FIELDS[3:], (int, int, float, int), numbers):
            try:
                values.append(kind(value))
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: {name} {value!r} is not "
                                 f"{'a number' if kind is float else 'an integer'}") from None
        cell = CellResult(status, *values)
        costs_ok = min(cell.cost_f, cell.cost_g) >= 1 and 0 < cell.time_ms < math.inf
        if cell.solved and not costs_ok:
            raise ValueError(f"{path}, line {lineno}: a first_order cell needs cost_f and "
                             "cost_g at least 1 and a finite, positive time_ms")
        if (prob, variant) in cells:
            raise ValueError(f"{path}, line {lineno}: a second cell for {prob}, {variant}")
        cells[(prob, variant)] = cell
    problems = sorted({k[0] for k in cells})
    variants = sorted({k[1] for k in cells})
    for key in itertools.product(problems, variants):
        if key not in cells:
            raise ValueError(f"{path}: no cell for problem {key[0]}, variant {key[1]}")
    return CostMatrix(problems, variants, cells)


def profile_to_csv(curves: list[ProfileCurve]) -> str:
    header = "tau," + ",".join(c.variant for c in curves)
    taus = curves[0].taus
    lines = [header]
    for i, tau in enumerate(taus):
        lines.append(f"{tau:.17g}," + ",".join(f"{c.values[i]:.17g}" for c in curves))
    return "\n".join(lines) + "\n"


def profile_to_svg(curves: list[ProfileCurve], metric: str) -> str:
    """Self-contained step plot of the profiles on a log2 tau axis."""
    width, height = 640, 480
    ml, mr, mt, mb = 60, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xmax = max(1e-9, max(math.log2(float(c.taus[-1])) for c in curves), 1.0)

    def sx(logtau: float) -> float:
        return ml + pw * logtau / xmax

    def sy(v: float) -> float:
        return mt + ph * (1.0 - v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">log2(tau), metric: {metric}</text>',
        f'<text x="18" y="{mt + ph / 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {mt + ph / 2})">fraction of problems</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>'
            f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11">{frac:g}</text>'
        )
    n_ticks = max(1, int(math.ceil(xmax)))
    for t in range(n_ticks + 1):
        lx = sx(min(t, xmax))
        parts.append(
            f'<line x1="{lx:.1f}" y1="{mt + ph}" x2="{lx:.1f}" y2="{mt + ph + 4}" stroke="black"/>'
            f'<text x="{lx:.1f}" y="{mt + ph + 18}" text-anchor="middle" font-size="11">{t}</text>'
        )
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(sx(0.0), sy(curve.at(1.0)))]
        for tau, val in zip(curve.taus, curve.values):
            lx = sx(min(math.log2(float(tau)), xmax))
            pts.append((lx, pts[-1][1]))  # horizontal run to the jump
            pts.append((lx, sy(float(val))))
        pts.append((ml + pw, pts[-1][1]))
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{path}"/>'
        )
        ly = mt + 18 + 20 * i
        parts.append(
            f'<line x1="{ml + pw + 12}" y1="{ly - 4}" x2="{ml + pw + 36}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{ml + pw + 42}" y="{ly}" font-size="12">{curve.variant}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(
    matrix: CostMatrix | None, profiles: dict[str, list[ProfileCurve]], out_dir
) -> list[Path]:
    """Write matrix.csv, unless ``matrix`` is None, then profile_<metric>.csv
    and .svg per metric into out_dir; return the paths in that order."""
    if not profiles or any(not curves for curves in profiles.values()):
        raise ValueError("no profiles to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        if matrix is not None:
            path = out / "matrix.csv"
            path.write_text(matrix_to_csv(matrix))
            written.append(path)
        for metric, curves in sorted(profiles.items()):
            pcsv = out / f"profile_{metric}.csv"
            pcsv.write_text(profile_to_csv(curves))
            written.append(pcsv)
            psvg = out / f"profile_{metric}.svg"
            psvg.write_text(profile_to_svg(curves, metric))
            written.append(psvg)
    except OSError as exc:
        raise OSError(f"failed writing benchmark outputs under {out}: {exc}") from exc
    return written


def default_matrix_specs(
    variants=DEFAULT_VARIANTS, problems: list[str] | None = None, **settings
) -> list[RunSpec]:
    """One ``RunSpec`` per problem and (alpha, beta) variant, all built-in
    problems by default; ``settings`` are the other ``RunSpec`` fields."""
    names = problems if problems is not None else [p.name for p in builtin_collection()]
    return [RunSpec(name, a, b, **settings) for name in names for a, b in variants]

"""The benchmark's workloads: inputs made from a seed, one closed-loop pass
over their operations, and the checks on every operation's output.

Each operation is timed from the outside around calls into trfam's public
functions; the checks run between operations, outside the timed region. A
failed operation is counted and the pass goes on.
"""

from __future__ import annotations

import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from trfam import adversarial, bench, bounds, driver
from trfam.hessians import build_model
from trfam.lcg import Lcg
from trfam.problems import Problem, builtin_collection, probe_points

# Every status trfam.driver.solve can return.
DRIVER_STATUSES = frozenset({"first_order", "max_iter", "eval_budget", "delta_underflow"})
# Iteration-log fields that must be finite in a passing run. rho is left
# out: NaN there is the driver's marker for "no model decrease, no ratio".
LOG_FIELDS = ("f", "gnorm", "delta", "eff_radius", "bnorm", "a_k")

EPS = 1e-6
MEMORY = 5
EVAL_BUDGET = 100_000
EXACT_VARIANTS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
QN_VARIANTS = ((0.0, 0.0), (1.0, 1.0))
WARM_MAX_ITER = 20
# (p, eps, c) of the seed-0 worst-case specs; each has k_eps near 1e4.
WORST_CASE_SPECS = ((0.0, 0.01, 1.0), (0.5, 0.1, 1.0), (1.0, 0.33, 1.0))
WARM_SPEC = adversarial.AdversarialSpec(eps=0.1, p=0.0)  # k_eps = 99
K_EPS_RANGE = (9000, 11000)


@dataclass
class PassResult:
    """Timings, cost totals and failures of one pass."""

    calls: list = field(default_factory=list)  # seconds of every timed call, in order
    mids: list = field(default_factory=list)  # perf_counter time halfway through each call
    op_ms: list = field(default_factory=list)  # latency of each operation
    attempted: int = 0
    failed: int = 0
    iterations: int = 0
    fevals: int = 0
    gevals: int = 0
    accepted: int = 0
    solved: int = 0
    nonfinite: int = 0
    failures: list = field(default_factory=list)

    def totals(self) -> tuple:
        """What must repeat exactly from pass to pass."""
        return (self.iterations, self.fevals, self.gevals, self.accepted, self.solved,
                self.nonfinite, self.attempted, self.failed)

    def timed(self, t0: float, sample: bool = True) -> float:
        """Record a call that started at perf_counter time t0 and just
        ended; returns its duration in seconds."""
        t1 = time.perf_counter()
        seconds = t1 - t0
        self.attempted += 1
        self.calls.append(seconds)
        self.mids.append(t0 + seconds / 2)
        if sample:
            self.op_ms.append(seconds * 1e3)
        return seconds

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {why}")

    def add_report(self, report: driver.SolveReport) -> None:
        self.iterations += report.iterations
        self.fevals += report.evals.n_f
        self.gevals += report.evals.n_g
        self.accepted += report.n_succ_total
        self.nonfinite += nonfinite_records(report.log)


def nonfinite_records(log) -> int:
    isfinite = math.isfinite
    return sum(1 for r in log if not all(isfinite(getattr(r, f)) for f in LOG_FIELDS))


def check_solve(report: driver.SolveReport, eps: float) -> list[str]:
    """Reasons a finished solve is wrong; empty when it is fine."""
    reasons = []
    if not (math.isfinite(report.final_f) and math.isfinite(report.final_gnorm)):
        reasons.append(f"non-finite final f={report.final_f!r} gnorm={report.final_gnorm!r}")
    if report.status not in DRIVER_STATUSES:
        reasons.append(f"unknown status {report.status!r}")
    if report.status == "first_order" and not report.final_gnorm <= eps:
        reasons.append(f"first_order with gnorm {report.final_gnorm!r} > eps {eps!r}")
    return reasons


def _error(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


# ---------------------------------------------------------------------------
# Matrix workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    problem: Problem
    hessian: str
    alpha: float
    beta: float
    max_iter: int

    @property
    def variant(self) -> str:
        return bench.RunSpec(self.problem.name, self.alpha, self.beta).variant

    @property
    def label(self) -> str:
        return f"{self.problem.name}/{self.hessian}/{self.variant}"


def start_problem(problem: Problem, seed: int) -> Problem:
    """Seed 0 keeps the problem's own start; seed s > 0 starts from its
    first seeded probe point."""
    if seed == 0:
        return problem
    return replace(problem, x0=probe_points(problem, 1, seed=seed)[0])


class MatrixWorkload:
    """One driver.solve per cell; with ``emit_dir`` each pass ends with the
    fevals/gevals/time profiles written by bench.emit."""

    def __init__(self, cells, warm_cells, emit_dir=None):
        self.cells = cells
        self.warm_cells = warm_cells
        self.emit_dir = emit_dir

    def warm_up(self) -> None:
        self._pass(self.warm_cells, None)

    def run_pass(self, tracer=None, between=None) -> PassResult:
        return self._pass(self.cells, tracer, between)

    def _pass(self, cells, tracer, between=None) -> PassResult:
        res = PassResult()
        solve = driver.solve
        profile, emit = bench.performance_profile, bench.emit
        if tracer is not None:
            solve = tracer.wrap("driver.solve", solve)
            profile = tracer.wrap("bench.performance_profile", profile)
            emit = tracer.wrap("bench.emit", emit)
        matrix = None
        if self.emit_dir is not None:
            matrix = bench.CostMatrix(sorted({c.problem.name for c in cells}),
                                      sorted({c.variant for c in cells}))
        with tracer.patched() if tracer is not None else nullcontext():
            for op, cell in enumerate(cells):
                if between is not None:
                    between()
                problem = cell.problem
                if tracer is not None:
                    tracer.op = op
                    problem = tracer.problem(problem)
                model = build_model(cell.hessian, problem, memory=MEMORY)
                if tracer is not None:
                    tracer.model(model)
                params = driver.TrParams(alpha=cell.alpha, beta=cell.beta)
                t0 = time.perf_counter()
                try:
                    report = solve(problem, params, model, eps=EPS, max_iter=cell.max_iter,
                                   eval_budget=EVAL_BUDGET)
                except Exception as exc:  # a failed cell is counted; the pass goes on
                    dt = res.timed(t0)
                    res.fail(cell.label, _error(exc))
                    status, n_f, n_g, iters = "error", 0, 0, 0
                else:
                    dt = res.timed(t0)
                    res.add_report(report)
                    res.solved += report.status == "first_order"
                    reasons = check_solve(report, EPS)
                    if reasons:
                        res.fail(cell.label, "; ".join(reasons))
                    status, n_f, n_g, iters = (report.status, report.evals.n_f,
                                               report.evals.n_g, report.iterations)
                if matrix is not None:
                    matrix.cells[(cell.problem.name, cell.variant)] = bench.CellResult(
                        status, n_f, n_g, dt * 1e3, iters)
            if matrix is not None:
                if tracer is not None:
                    tracer.op = len(cells)
                self._profiles(res, matrix, profile, emit)
        return res

    def _profiles(self, res, matrix, profile, emit) -> None:
        t0 = time.perf_counter()
        try:
            curves = {m: profile(matrix, m) for m in bench.METRICS}
            written = emit(matrix, curves, self.emit_dir)
        except Exception as exc:
            res.timed(t0, sample=False)
            res.fail("profiles", _error(exc))
            return
        res.timed(t0, sample=False)
        if not written or not all(p.is_file() for p in written):
            res.fail("profiles", f"emit wrote {len(written)} of the expected files")


def matrix_exact(seed: int, emit_dir) -> MatrixWorkload:
    probs = [start_problem(p, seed) for p in builtin_collection()]
    cells = [Cell(p, "exact", a, b, 10_000) for p in probs for a, b in EXACT_VARIANTS]
    warm = [Cell(p, "exact", 0.0, 0.0, WARM_MAX_ITER) for p in probs]
    return MatrixWorkload(cells, warm, emit_dir)


def matrix_qn(seed: int) -> MatrixWorkload:
    probs = [start_problem(p, seed) for p in builtin_collection()]
    cells = [Cell(p, h, a, b, 500) for p in probs for h in ("lbfgs", "lsr1")
             for a, b in QN_VARIANTS]
    warm = [Cell(p, h, 0.0, 0.0, WARM_MAX_ITER) for p in probs for h in ("lbfgs", "lsr1")]
    return MatrixWorkload(cells, warm)


# ---------------------------------------------------------------------------
# Worst-case workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """A worst-case spec with the audit inputs bound_tables.py derives."""

    spec: adversarial.AdversarialSpec
    k_eps: int
    f0: float
    f_low: float
    L: float

    @classmethod
    def build(cls, spec):
        inst = adversarial.generate(spec)
        interp = adversarial.build_interpolant(inst)
        return cls(spec, inst.k_eps, float(inst.f_vals[0]), interp.lower_bound(),
                   interp.second_derivative_bound())

    @property
    def label(self) -> str:
        s = self.spec
        return f"p={s.p:g},c={s.c:g},eps={s.eps!r}"


def eps_for_k(k: int, p: float, c: float) -> float:
    """Invert k_eps = eps^(-2/(1-p)) (p < 1) or exp(c eps^-2) (p = 1)."""
    if p == 1.0:
        return math.sqrt(c / math.log(k))
    return k ** (-(1.0 - p) / 2.0)


def worst_case_specs(seed: int) -> list:
    """Seed 0: the listed specs. Seed s > 0: each spec's target k_eps drawn
    from K_EPS_RANGE with Lcg(s), and eps from the inverted formula."""
    if seed == 0:
        return [adversarial.AdversarialSpec(eps=e, p=p, c=c) for p, e, c in WORST_CASE_SPECS]
    rng = Lcg(seed)
    lo, hi = K_EPS_RANGE
    specs = []
    for p, _, c in WORST_CASE_SPECS:
        k = min(hi, lo + int(rng.uniform(0.0, hi - lo + 1)))
        specs.append(adversarial.AdversarialSpec(eps=eps_for_k(k, p, c), p=p, c=c))
    return specs


class WorstCaseWorkload:
    """verify_sharpness then audit_run, per case."""

    def __init__(self, cases, warm_case):
        self.cases = cases
        self.warm_case = warm_case

    def warm_up(self) -> None:
        self._pass([self.warm_case], None)

    def run_pass(self, tracer=None, between=None) -> PassResult:
        return self._pass(self.cases, tracer, between)

    def _pass(self, cases, tracer, between=None) -> PassResult:
        res = PassResult()
        verify, audit_run = adversarial.verify_sharpness, bounds.audit_run
        if tracer is not None:
            verify = tracer.wrap("adversarial.verify_sharpness", verify)
            audit_run = tracer.wrap("bounds.audit_run", audit_run)
        with tracer.patched() if tracer is not None else nullcontext():
            for op, case in enumerate(cases):
                if between is not None:
                    between()
                if tracer is not None:
                    tracer.op = op
                spec = case.spec
                t0 = time.perf_counter()
                try:
                    sharp, report = verify(spec)
                    params = driver.TrParams(alpha=spec.alpha, beta=spec.beta, delta0=sharp.delta0)
                    a_min = driver.theoretical_a_min(report.log[0].a_k, params, case.L)
                    inputs = bounds.BoundInputs.from_params(
                        params, f0=case.f0, f_low=case.f_low, a_min=a_min, mu=1.0,
                        p=spec.p, eps=spec.eps, L=case.L)
                    audit = audit_run(report, inputs, "successful_counter")
                except Exception as exc:  # a failed case is counted; the pass goes on
                    res.timed(t0)
                    res.fail(case.label, _error(exc))
                    continue
                res.timed(t0)
                res.add_report(report)
                reasons = check_solve(report, spec.eps)
                if not sharp.passed:
                    reasons.append(f"verifier mismatches {sharp.mismatches[:3]}")
                if sharp.iterations != case.k_eps:
                    reasons.append(f"{sharp.iterations} iterations, k_eps {case.k_eps}")
                if not audit.passed:
                    reasons.append("audit failed: " + ", ".join(
                        c.name for c in audit.checks if not c.ok))
                if reasons:
                    res.fail(case.label, "; ".join(reasons))
                res.solved += sharp.passed and audit.passed
        return res


def worst_case(seed: int) -> WorstCaseWorkload:
    return WorstCaseWorkload([Case.build(s) for s in worst_case_specs(seed)],
                             Case.build(WARM_SPEC))


def build(name: str, seed: int, emit_dir):
    if name == "matrix-exact":
        return matrix_exact(seed, emit_dir)
    if name == "matrix-qn":
        return matrix_qn(seed)
    if name == "worst-case":
        return worst_case(seed)
    raise ValueError(f"unknown workload {name!r}")

"""Outer trust-region loop with a per-iteration monitor.

The loop follows the standard accept/reject scheme driven by the agreement
ratio rho, with the radius family parameterized by (alpha, beta). Every
quantity needed by the complexity analysis is recorded: the composite
a_k = Delta_k (1 + max_j |B_j|)^(1-beta) / (min_j |grad f(x_j)|)^(1-alpha),
the successful-iteration count, and historical gradient/Hessian norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import EvalCounter, Problem
from .subproblem import _norm, effective_radius, newton_step_1d, solve_tcg

VERY_SUCCESSFUL = "very_successful"
SUCCESSFUL = "successful"
UNSUCCESSFUL = "unsuccessful"

_STATUS_LETTER = {VERY_SUCCESSFUL: "VS", SUCCESSFUL: "S", UNSUCCESSFUL: "U"}

CSV_HEADER = "k,f,gnorm,delta,eff_radius,rho,status,bnorm,n_succ,a_k,cg_iters"

# Guards for floating-point corners the analysis assumes away.
_RADIUS_UNDERFLOW = 1e-15
_DECREASE_FLOOR = 1e-15
_LIPSCHITZ_SAFETY = 10.0


class SolveError(RuntimeError):
    """Subproblem contract violation or non-finite data at an iterate."""


@dataclass
class TrParams:
    """Constants of the trust-region family.

    Orderings 0 < eta1 <= eta2 < 1, 0 < gamma1 <= gamma2 < 1 <= gamma3 <=
    gamma4, 0 < kappa_mdc <= 1/2 and alpha, beta <= 1 are enforced on
    construction. Each status prescribes an interval for the next Delta:
    [gamma3, gamma4], [gamma2, 1] or [gamma1, gamma2] times Delta for very
    successful, successful and unsuccessful steps. The driver takes the
    points gamma3*Delta, Delta and gamma2*Delta of those intervals.
    """

    eta1: float = 0.1
    eta2: float = 0.75
    gamma1: float = 0.25
    gamma2: float = 0.5
    gamma3: float = 2.0
    gamma4: float = 2.0
    kappa_mdc: float = 0.5
    alpha: float = 0.0
    beta: float = 0.0
    delta0: float = 1.0
    radius_mode: str = "current"  # or "history"
    update_on_unsuccessful: bool = False

    def __post_init__(self):
        if not 0 < self.eta1 <= self.eta2 < 1:
            raise ValueError("need 0 < eta1 <= eta2 < 1")
        if not 0 < self.gamma1 <= self.gamma2 < 1 <= self.gamma3 <= self.gamma4:
            raise ValueError("need 0 < gamma1 <= gamma2 < 1 <= gamma3 <= gamma4")
        if not 0 < self.kappa_mdc <= 0.5:
            raise ValueError("need 0 < kappa_mdc <= 1/2")
        if not (self.alpha <= 1 and self.beta <= 1):  # NaN fails too
            raise ValueError("need alpha <= 1 and beta <= 1")
        if not self.delta0 > 0:
            raise ValueError("need delta0 > 0")
        if self.radius_mode not in ("current", "history"):
            raise ValueError(f"unknown radius_mode {self.radius_mode!r}")


@dataclass(slots=True)
class IterationRecord:
    k: int
    f: float
    gnorm: float
    delta: float
    eff_radius: float
    rho: float
    status: str
    bnorm: float
    n_succ: int
    a_k: float
    cg_iters: int
    # extras used by monitors/verifiers, not part of the CSV contract
    model_decrease: float = math.nan
    snorm: float = math.nan


@dataclass
class SolveReport:
    status: str
    iterations: int
    n_succ_total: int
    n_unsucc_total: int
    final_f: float
    final_gnorm: float
    evals: EvalCounter
    log: list[IterationRecord] = field(default_factory=list)
    a_min_theoretical: float = math.nan
    lipschitz_estimate: float = math.nan
    x: np.ndarray | None = None


def a_k(delta: float, max_bnorm: float, min_gnorm: float, alpha: float, beta: float) -> float:
    """Delta * (1 + max |B|)^(1-beta) / (min |grad|)^(1-alpha)."""
    if not min_gnorm > 0:
        raise ValueError("min_gnorm must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")
    return delta * (1.0 + max_bnorm) ** (1.0 - beta) / min_gnorm ** (1.0 - alpha)


def theoretical_a_min(a0: float, params: TrParams, L: float) -> float:
    """Uniform lower bound min{a0, gamma1, gamma1*kappa_mdc*(1-eta2)/kappa}
    with kappa = max(L, 1)/2."""
    if not L > 0:
        raise ValueError("L must be positive")
    kappa = max(L, 1.0) / 2.0
    return min(a0, params.gamma1, params.gamma1 * params.kappa_mdc * (1.0 - params.eta2) / kappa)


def _next_delta(delta: float, status: str, params: TrParams) -> float:
    if status == VERY_SUCCESSFUL:
        return params.gamma3 * delta
    if status == SUCCESSFUL:
        return delta
    return params.gamma2 * delta


def solve(
    problem: Problem,
    params: TrParams,
    model,
    eps: float,
    max_iter: int = 10_000,
    eval_budget: int | None = None,
) -> SolveReport:
    """Run the trust-region loop until |grad f| <= eps or a budget stop.

    The returned iteration count is the index of the first iterate whose
    gradient norm passes the test; the stopping iterate itself consumes no
    step. ``eval_budget`` caps the combined objective and gradient
    evaluation count. A 1-d problem takes the exact 1-d step
    (``newton_step_1d``), which the worst-case verifier relies on; any
    other dimension takes the truncated CG step (``solve_tcg``).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")

    evals = EvalCounter()

    def budget_left(need: int) -> bool:
        return eval_budget is None or evals.total + need <= eval_budget

    x = np.array(problem.x0, dtype=float)
    step_solver = newton_step_1d if x.size == 1 else solve_tcg
    if not budget_left(2):
        return SolveReport("eval_budget", 0, 0, 0, math.nan, math.nan, evals, [], x=x)
    f = float(problem.eval_f(x))
    evals.n_f += 1
    g = np.asarray(problem.eval_grad(x), dtype=float)
    evals.n_g += 1
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise SolveError(f"{problem.name}: non-finite f or gradient at start")

    delta = params.delta0
    hist_min_g = math.inf
    hist_max_b = 0.0
    n_succ = 0
    lip = 0.0
    log: list[IterationRecord] = []
    status = "max_iter"

    k = 0
    while True:
        gnorm = _norm(g)
        if gnorm <= eps:
            status = "first_order"
            break
        if k >= max_iter:
            status = "max_iter"
            break
        if not budget_left(1):
            status = "eval_budget"
            break

        model.begin_iteration(k)
        bnorm = float(model.operator_norm())
        hist_min_g = min(hist_min_g, gnorm)
        hist_max_b = max(hist_max_b, bnorm)

        if params.radius_mode == "history":
            gterm, bterm = hist_min_g, hist_max_b
        else:
            gterm, bterm = gnorm, bnorm
        radius = effective_radius(params.alpha, params.beta, delta, gterm, bterm)
        if radius < _RADIUS_UNDERFLOW * max(1.0, _norm(x)):
            status = "delta_underflow"
            break

        step = step_solver(g, model, radius)
        snorm = _norm(step.s)
        x_trial = x + step.s

        f_at_k = f
        decrease = step.model_decrease
        decrease_floor = _DECREASE_FLOOR * (1.0 + abs(f_at_k))
        if decrease < -decrease_floor:
            raise SolveError(
                f"subproblem contract violation at k={k}: model decrease {decrease!r}"
            )

        if abs(decrease) < decrease_floor:
            # no meaningful model decrease: count as unsuccessful, do not divide
            rho = math.nan
            iter_status = UNSUCCESSFUL
            f_trial = f_at_k
        else:
            f_trial = float(problem.eval_f(x_trial))
            evals.n_f += 1
            rho = (f_at_k - f_trial) / decrease
            if rho >= params.eta2:
                iter_status = VERY_SUCCESSFUL
            elif rho >= params.eta1:
                iter_status = SUCCESSFUL
            else:
                iter_status = UNSUCCESSFUL

        accepted = iter_status != UNSUCCESSFUL
        if accepted:
            if not budget_left(1):
                status = "eval_budget"
                break
            g_new = np.asarray(problem.eval_grad(x_trial), dtype=float)
            evals.n_g += 1
            if not (math.isfinite(f_trial) and np.isfinite(g_new).all()):
                raise SolveError(f"{problem.name}: non-finite f or gradient at k={k}")
            y = g_new - g
            if snorm > 0:
                lip = max(lip, _norm(y) / snorm)
            model.update(step.s, y)
            x, f, g = x_trial, f_trial, g_new
            n_succ += 1
        elif params.update_on_unsuccessful and model.mode in ("lbfgs", "lsr1"):
            # Assumption-2 regime: pay one extra gradient for the rejected pair
            if not budget_left(1):
                status = "eval_budget"
                break
            g_trial = np.asarray(problem.eval_grad(x_trial), dtype=float)
            evals.n_g += 1
            if np.all(np.isfinite(g_trial)):
                model.update(step.s, g_trial - g)

        log.append(
            IterationRecord(
                k=k,
                f=f_at_k,
                gnorm=gnorm,
                delta=delta,
                eff_radius=radius,
                rho=rho,
                status=iter_status,
                bnorm=bnorm,
                n_succ=n_succ,
                a_k=a_k(delta, hist_max_b, hist_min_g, params.alpha, params.beta),
                cg_iters=step.cg_iters,
                model_decrease=decrease,
                snorm=snorm,
            )
        )
        delta = _next_delta(delta, iter_status, params)
        k += 1

    report = SolveReport(
        status=status,
        iterations=k,
        n_succ_total=n_succ,
        n_unsucc_total=k - n_succ,
        final_f=f,
        final_gnorm=_norm(g),
        evals=evals,
        log=log,
        x=x,
    )
    if lip > 0:
        report.lipschitz_estimate = _LIPSCHITZ_SAFETY * lip
        report.a_min_theoretical = theoretical_a_min(
            log[0].a_k, params, report.lipschitz_estimate
        )
    return report


def log_to_csv(report: SolveReport) -> str:
    """Iteration log as CSV with 17-significant-digit floats."""
    lines = [CSV_HEADER]
    for r in report.log:
        lines.append(
            ",".join(
                [
                    str(r.k),
                    _fmt(r.f),
                    _fmt(r.gnorm),
                    _fmt(r.delta),
                    _fmt(r.eff_radius),
                    _fmt(r.rho),
                    _STATUS_LETTER[r.status],
                    _fmt(r.bnorm),
                    str(r.n_succ),
                    _fmt(r.a_k),
                    str(r.cg_iters),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_log_csv(report: SolveReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(log_to_csv(report))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def check_run_invariants(report: SolveReport, params: TrParams, L: float) -> list[str]:
    """Check the per-iteration lower bounds and update-interval consistency.

    Returns human-readable violation messages (empty list = all hold).
    With an exact Lipschitz constant the checks are guarantees; with an
    estimated L they are diagnostics only.
    """
    issues: list[str] = []
    if not report.log:
        return issues
    a0 = report.log[0].a_k
    a_min = theoretical_a_min(a0, params, L)
    min_g = math.inf
    max_b = 0.0
    for r in report.log:
        min_g = min(min_g, r.gnorm)
        max_b = max(max_b, r.bnorm)
        if r.a_k < a_min * (1.0 - 1e-10):
            issues.append(f"k={r.k}: a_k={r.a_k!r} below a_min={a_min!r}")
        decrease_bound = params.kappa_mdc * min_g**2 / (1.0 + max_b) * a_min
        if not math.isnan(r.model_decrease) and r.model_decrease < decrease_bound * (1.0 - 1e-10):
            issues.append(
                f"k={r.k}: model decrease {r.model_decrease!r} below bound {decrease_bound!r}"
            )
    for prev, nxt in zip(report.log, report.log[1:]):
        lo, hi = {
            VERY_SUCCESSFUL: (params.gamma3, params.gamma4),
            SUCCESSFUL: (params.gamma2, 1.0),
            UNSUCCESSFUL: (params.gamma1, params.gamma2),
        }[prev.status]
        if not lo * prev.delta * (1 - 1e-12) <= nxt.delta <= hi * prev.delta * (1 + 1e-12):
            issues.append(
                f"k={prev.k}: delta update {prev.delta!r}->{nxt.delta!r} "
                f"outside [{lo}, {hi}] x delta for status {prev.status}"
            )
        if prev.status == UNSUCCESSFUL and nxt.f != prev.f:
            issues.append(f"k={prev.k}: unsuccessful iteration moved the iterate")
    return issues

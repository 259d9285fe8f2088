"""Outer trust-region loop with a per-iteration monitor.

The loop follows the standard accept/reject scheme driven by the agreement
ratio rho, with the radius family parameterized by (alpha, beta). Every
quantity needed by the complexity analysis is recorded: the composite
a_k = Delta_k (1 + max_j |B_j|)^(1-beta) / (min_j |grad f(x_j)|)^(1-alpha),
the successful-iteration count, and historical gradient/Hessian norms.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .hessians import LbfgsModel, Lsr1Model
from .problems import EvalCounter, Problem
from .subproblem import _norm, effective_radius, newton_step_1d, solve_tcg

VERY_SUCCESSFUL = "very_successful"
SUCCESSFUL = "successful"
UNSUCCESSFUL = "unsuccessful"

# The status column stores indices into STATUSES.
STATUSES = (VERY_SUCCESSFUL, SUCCESSFUL, UNSUCCESSFUL)
# The effective radius reads the current |g| and |B| or their history.
RADIUS_MODES = ("current", "history")
_STATUS_CODE = {name: code for code, name in enumerate(STATUSES)}
_STATUS_LETTERS = ("VS", "S", "U")

CSV_HEADER = "k,f,gnorm,delta,eff_radius,rho,status,bnorm,n_succ,a_k,cg_iters"

# Guards for floating-point corners the analysis assumes away.
_RADIUS_UNDERFLOW = 1e-15
# Largest Delta and effective radius: a long run of very successful steps
# would otherwise double Delta past the float range (the Delta-hat of
# Nocedal and Wright 2006, Alg. 4.1).
_DELTA_MAX = 1e150
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
    points gamma3*Delta, Delta and gamma2*Delta of those intervals, except
    that it clips Delta and the effective radius at Delta_max = 1e150
    (Nocedal and Wright 2006, Alg. 4.1): it leaves the family only where
    gamma3*Delta would pass that.
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
    radius_mode: str = "current"  # one of RADIUS_MODES
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
        if self.radius_mode not in RADIUS_MODES:
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


_FLOAT_COLUMNS = (
    "f", "gnorm", "delta", "eff_radius", "rho", "bnorm", "a_k", "model_decrease", "snorm"
)


class IterationLog:
    """Iteration log with one typed ``array`` per record field.

    ``k`` is not stored: it is the index. ``len``, indexing and iteration
    give ``IterationRecord`` views, and a slice gives a list of them.
    Readers that scan the whole log read the columns instead;
    ``column(name)`` views one as a numpy array without copying it.
    """

    __slots__ = (*_FLOAT_COLUMNS, "status", "n_succ", "cg_iters")

    def __init__(self):
        for name in _FLOAT_COLUMNS:
            setattr(self, name, array("d"))
        self.status = array("b")  # indices into STATUSES
        self.n_succ = array("q")
        self.cg_iters = array("i")

    def append(
        self, f, gnorm, delta, eff_radius, rho, status, bnorm, n_succ, a_k, cg_iters,
        model_decrease=math.nan, snorm=math.nan,
    ) -> None:
        """Add one iteration; the arguments are IterationRecord's fields after k."""
        self.f.append(f)
        self.gnorm.append(gnorm)
        self.delta.append(delta)
        self.eff_radius.append(eff_radius)
        self.rho.append(rho)
        self.status.append(_STATUS_CODE[status])
        self.bnorm.append(bnorm)
        self.n_succ.append(n_succ)
        self.a_k.append(a_k)
        self.cg_iters.append(cg_iters)
        self.model_decrease.append(model_decrease)
        self.snorm.append(snorm)

    def column(self, name: str) -> np.ndarray:
        """Read-only numpy view of one column."""
        col = getattr(self, name)
        view = np.frombuffer(col, dtype=col.typecode)
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self.f)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("iteration log index out of range")
        return IterationRecord(
            i, self.f[i], self.gnorm[i], self.delta[i], self.eff_radius[i], self.rho[i],
            STATUSES[self.status[i]], self.bnorm[i], self.n_succ[i], self.a_k[i],
            self.cg_iters[i], self.model_decrease[i], self.snorm[i],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class SolveReport:
    status: str
    iterations: int
    n_succ_total: int
    n_unsucc_total: int
    final_f: float
    final_gnorm: float
    evals: EvalCounter
    log: IterationLog = field(default_factory=IterationLog)
    a_min_theoretical: float = math.nan
    lipschitz_estimate: float = math.nan
    x: np.ndarray | None = None


def a_k(delta: float, max_bnorm: float, min_gnorm: float, alpha: float, beta: float) -> float:
    """Delta * (1 + max |B|)^(1-beta) / (min |grad|)^(1-alpha).

    A value past the float range raises ArithmeticError: OverflowError for
    an overflowed power or an inf quotient, ZeroDivisionError for a
    denominator that underflows to 0, as a negative alpha and a tiny
    gradient give.
    """
    if not min_gnorm > 0:
        raise ValueError("min_gnorm must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")
    value = delta * (1.0 + max_bnorm) ** (1.0 - beta) / min_gnorm ** (1.0 - alpha)
    if value == math.inf:
        raise OverflowError("a_k overflows")
    return value


def theoretical_a_min(a0: float, params: TrParams, L: float) -> float:
    """Uniform lower bound min{a0, gamma1, gamma1*kappa_mdc*(1-eta2)/kappa}
    with kappa = max(L, 1)/2."""
    if not L > 0:
        raise ValueError("L must be positive")
    kappa = max(L, 1.0) / 2.0
    return min(a0, params.gamma1, params.gamma1 * params.kappa_mdc * (1.0 - params.eta2) / kappa)


def _next_delta(delta: float, status: str, params: TrParams) -> float:
    if status == VERY_SUCCESSFUL:
        return min(params.gamma3 * delta, _DELTA_MAX)
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
    budget = math.inf if eval_budget is None else eval_budget

    x = np.array(problem.x0, dtype=float)
    step_solver = newton_step_1d if x.size == 1 else solve_tcg
    if evals.n_f + evals.n_g + 2 > budget:
        return SolveReport("eval_budget", 0, 0, 0, math.nan, math.nan, evals, x=x)
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
    log = IterationLog()
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
        if evals.n_f + evals.n_g + 1 > budget:
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
        if radius > _DELTA_MAX:
            radius = _DELTA_MAX
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
            if evals.n_f + evals.n_g + 1 > budget:
                status = "eval_budget"
                break
            g_new = np.asarray(problem.eval_grad(x_trial), dtype=float)
            evals.n_g += 1
            y = g_new - g
            ynorm = _norm(y)  # finite only if g_new is, g being finite
            if not (math.isfinite(f_trial) and (math.isfinite(ynorm) or np.isfinite(g_new).all())):
                raise SolveError(f"{problem.name}: non-finite f or gradient at k={k}")
            if snorm > 0:
                lip = max(lip, ynorm / snorm)
            model.update(step.s, y)
            x, f, g = x_trial, f_trial, g_new
            n_succ += 1
        elif params.update_on_unsuccessful and isinstance(model, (LbfgsModel, Lsr1Model)):
            # Assumption-2 regime: pay one extra gradient for the rejected pair
            if evals.n_f + evals.n_g + 1 > budget:
                status = "eval_budget"
                break
            g_trial = np.asarray(problem.eval_grad(x_trial), dtype=float)
            evals.n_g += 1
            if np.all(np.isfinite(g_trial)):
                model.update(step.s, g_trial - g)

        try:
            ak = a_k(delta, hist_max_b, hist_min_g, params.alpha, params.beta)
        except ArithmeticError as exc:
            raise SolveError(f"{problem.name}: a_k out of the float range at k={k}") from exc
        log.append(
            f_at_k,
            gnorm,
            delta,
            radius,
            rho,
            iter_status,
            bnorm,
            n_succ,
            ak,
            step.cg_iters,
            decrease,
            snorm,
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
            log.a_k[0], params, report.lipschitz_estimate
        )
    return report


def log_to_csv(report: SolveReport) -> str:
    """Iteration log as CSV with 17-significant-digit floats."""
    log = report.log
    rows = zip(
        map(str, range(len(log))),
        map(_fmt, log.f),
        map(_fmt, log.gnorm),
        map(_fmt, log.delta),
        map(_fmt, log.eff_radius),
        map(_fmt, log.rho),
        map(_STATUS_LETTERS.__getitem__, log.status),
        map(_fmt, log.bnorm),
        map(str, log.n_succ),
        map(_fmt, log.a_k),
        map(str, log.cg_iters),
    )
    return "\n".join([CSV_HEADER, *map(",".join, rows)]) + "\n"


def write_log_csv(report: SolveReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(log_to_csv(report))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def check_run_invariants(report: SolveReport, params: TrParams, L: float) -> list[str]:
    """Check the per-iteration lower bounds and update-interval consistency.

    Returns human-readable violation messages (empty list = all hold), in
    iteration order. With an exact Lipschitz constant the checks are
    guarantees; with an estimated L they are diagnostics only. A very
    successful step whose next Delta is the clip ``_DELTA_MAX`` is within
    its interval.
    """
    log = report.log
    if not log:
        return []
    a_min = theoretical_a_min(log.a_k[0], params, L)
    intervals = (  # of the next Delta / Delta, indexed by status code
        (params.gamma3, params.gamma4),
        (params.gamma2, 1.0),
        (params.gamma1, params.gamma2),
    )
    status, delta, f = log.column("status")[:-1], log.column("delta"), log.column("f")
    lo, hi = np.array(intervals)[status].T
    prev, nxt = delta[:-1], delta[1:]
    with np.errstate(over="ignore"):  # as in float arithmetic, an overflow is inf
        min_g = np.fmin.accumulate(log.column("gnorm"))
        max_b = np.fmax.accumulate(log.column("bnorm"))
        decrease_bound = params.kappa_mdc * min_g**2 / (1.0 + max_b) * a_min
        low_a = log.column("a_k") < a_min * (1.0 - 1e-10)
        low_decrease = log.column("model_decrease") < decrease_bound * (1.0 - 1e-10)
        in_interval = (lo * prev * (1 - 1e-12) <= nxt) & (nxt <= hi * prev * (1 + 1e-12))
    clipped = (status == _STATUS_CODE[VERY_SUCCESSFUL]) & (nxt == _DELTA_MAX)
    bad_update = ~(in_interval | clipped)
    moved = (status == _STATUS_CODE[UNSUCCESSFUL]) & (f[1:] != f[:-1])

    issues: list[str] = []
    for k in np.flatnonzero(low_a | low_decrease).tolist():
        if low_a[k]:
            issues.append(f"k={k}: a_k={log.a_k[k]!r} below a_min={a_min!r}")
        if low_decrease[k]:
            issues.append(
                f"k={k}: model decrease {log.model_decrease[k]!r} "
                f"below bound {float(decrease_bound[k])!r}"
            )
    for k in np.flatnonzero(bad_update | moved).tolist():
        if bad_update[k]:
            issues.append(
                f"k={k}: delta update {log.delta[k]!r}->{log.delta[k + 1]!r} outside "
                f"[{lo[k]}, {hi[k]}] x delta for status {STATUSES[log.status[k]]}"
            )
        if moved[k]:
            issues.append(f"k={k}: unsuccessful iteration moved the iterate")
    return issues

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
from dataclasses import dataclass, field, fields

import numpy as np

from .hessians import _PairModel
from .problems import EvalCounter, Problem
from .subproblem import (
    SolveError, SteihaugPath, _norm, effective_radius, newton_step_1d, solve_tcg,
)

VERY_SUCCESSFUL = "very_successful"
SUCCESSFUL = "successful"
UNSUCCESSFUL = "unsuccessful"

# Why a run stopped: the status ``solve`` returns.
STOP_STATUSES = ("first_order", "max_iter", "eval_budget", "delta_underflow")

# The status column stores indices into STATUSES, the loop's codes _VS, _S, _U.
STATUSES = (VERY_SUCCESSFUL, SUCCESSFUL, UNSUCCESSFUL)
_VS, _S, _U = range(len(STATUSES))
# The effective radius reads the current |g| and |B| or their history.
RADIUS_MODES = ("current", "history")
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


@dataclass
class TrParams:
    """Constants of the trust-region family.

    Orderings 0 < eta1 <= eta2 < 1, 0 < gamma1 <= gamma2 < 1 <= gamma3 <=
    gamma4, 0 < kappa_mdc <= 1/2, alpha, beta <= 1 and finite values are
    enforced on construction. Each status prescribes an interval for the next Delta:
    [gamma3, gamma4], [gamma2, 1] or [gamma1, gamma2] times Delta for very
    successful, successful and unsuccessful steps. The driver takes the
    points gamma3*Delta, Delta and gamma2*Delta of those intervals, except
    that it clips Delta and the effective radius at Delta_max = 1e150
    (Nocedal and Wright 2006, Alg. 4.1): it leaves the family only where
    gamma3*Delta would pass that. Delta0 is clipped the same way, so a run
    with delta0 above 1e150 starts from Delta = 1e150.
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
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.radius_mode not in RADIUS_MODES:
            raise ValueError(f"unknown radius_mode {self.radius_mode!r}")


@dataclass(slots=True)
class IterationRecord:
    """One iteration of an ``IterationLog``, as its iterator yields it."""

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


class IterationLog:
    """Iteration log with one typed ``array`` per ``IterationRecord`` field.

    ``k`` is not stored: it is the index. ``n_succ`` is not stored either:
    it is read off ``status`` as the running count of accepted steps.
    ``status`` holds codes into STATUSES. Readers read the columns: the
    arrays themselves, or ``column(name)``, a read-only numpy view.

    A writer appends a row through ``column_appends``, the columns' bound
    ``append`` methods in ``__slots__`` order: the driver binds them once
    per run, so a row costs no Python frame.

    Iteration yields ``IterationRecord`` views, and ``log[i]`` builds record
    i from the columns alone, counting its ``n_succ`` over ``status[:i+1]``.
    Only the benchmark still reads records: in ``perfbench/workloads.py``,
    ``nonfinite_records`` iterates them and the worst-case pass reads
    ``report.log[0].a_k``, which costs O(1), not a pass over the log;
    ``perfbench/tests/test_perfbench.py`` builds records and sums their
    ``cg_iters``.
    """

    __slots__ = tuple(f.name for f in fields(IterationRecord) if f.name not in ("k", "n_succ"))

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, array({"status": "b", "cg_iters": "i"}.get(name, "d")))

    def column_appends(self) -> list:
        """Each column's bound ``append``, in ``__slots__`` order: IterationRecord's
        fields but k and n_succ, status taking a code."""
        return [getattr(self, name).append for name in self.__slots__]

    @property
    def n_succ(self) -> array:
        """|S_k|, the accepted steps up to and including k: a new ``'q'`` array."""
        counts = array("q")
        counts.frombytes(np.cumsum(self.column("status") != _U, dtype=np.int64).tobytes())
        return counts

    def column(self, name: str) -> np.ndarray:
        """Read-only numpy view of one column."""
        col = getattr(self, name)
        view = np.frombuffer(col, dtype=col.typecode)
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self.f)

    def __getitem__(self, i: int) -> IterationRecord:
        i = range(len(self))[i]
        return IterationRecord(
            i, self.f[i], self.gnorm[i], self.delta[i], self.eff_radius[i], self.rho[i],
            STATUSES[self.status[i]], self.bnorm[i], i + 1 - self.status[: i + 1].count(_U),
            self.a_k[i], self.cg_iters[i], self.model_decrease[i], self.snorm[i],
        )

    def __iter__(self):
        return map(
            IterationRecord, range(len(self)), self.f, self.gnorm, self.delta,
            self.eff_radius, self.rho, map(STATUSES.__getitem__, self.status), self.bnorm,
            self.n_succ, self.a_k, self.cg_iters, self.model_decrease, self.snorm,
        )


@dataclass
class SolveReport:
    """Outcome of ``solve``. ``n_succ_total`` and ``n_unsucc_total`` count
    the accepted and rejected iterations, read off ``log.status``."""

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


def check_budgets(max_iter: int, eval_budget: int | None) -> None:
    """Raise ValueError for a negative ``max_iter`` or an ``eval_budget``
    (None is none) below 2, the f and g at x0."""
    if not max_iter >= 0:
        raise ValueError("max_iter must be nonnegative")
    if eval_budget is not None and not eval_budget >= 2:
        raise ValueError("eval_budget must be at least 2")


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
    evaluation count; an iteration starts only when its trial f and that
    f's g fit, so every evaluation after x0's belongs to a logged
    iteration. A 1-d problem takes the exact 1-d step (``newton_step_1d``),
    which the worst-case verifier relies on; any other dimension takes the
    truncated CG step (``solve_tcg``). While x and the model stay as they
    are, as after a rejected step, every CG step walks one
    ``SteihaugPath``, built with the |g| of the stopping test; an accepted
    step, or an ``update`` that returns True (B changes only there), drops
    it. The run stops with ``delta_underflow`` when the effective radius
    falls below 1e-15 max(1, |x|). An eps that is not positive and finite raises ValueError,
    as ``check_budgets`` does.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    check_budgets(max_iter, eval_budget)
    budget = math.inf if eval_budget is None else eval_budget

    # What the loop reads but never changes, read once. The step solvers
    # are this module's names as they are when the run starts.
    eval_f, eval_grad = problem.eval_f, problem.eval_grad
    operator_norm, update = model.operator_norm, model.update
    eta1, eta2, gamma2, gamma3 = params.eta1, params.eta2, params.gamma2, params.gamma3
    alpha, beta = params.alpha, params.beta
    history = params.radius_mode == "history"
    update_rejected = params.update_on_unsuccessful and isinstance(model, _PairModel)
    step_1d, step_tcg = newton_step_1d, solve_tcg
    isfinite = math.isfinite
    log = IterationLog()
    # the log's columns, appended to directly: a row costs no Python frame
    (log_f, log_gnorm, log_delta, log_radius, log_rho, log_status, log_bnorm, log_ak,
     log_cg_iters, log_decrease, log_snorm) = log.column_appends()

    x = np.array(problem.x0, dtype=float)
    one_d = x.size == 1
    path = None  # the CG path of the current g and model
    f = float(eval_f(x))
    g = np.asarray(eval_grad(x), dtype=float)
    n_f = n_g = 1
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise SolveError(f"{problem.name}: non-finite f or gradient at start")

    delta = params.delta0
    if delta > _DELTA_MAX:
        delta = _DELTA_MAX
    hist_min_g = math.inf
    hist_max_b = 0.0
    lip = 0.0
    # |x| at its last exact reading plus every accepted |s| since: at least
    # |x| by the triangle inequality. Its relative rounding error grows by
    # about (n + 2) u per accepted step (u = 2^-53), so twice it stays above
    # the computed |x| for far more steps than a run takes.
    xbound = _norm(x)

    k = 0
    while True:
        gnorm = _norm(g)
        if gnorm <= eps:
            status = "first_order"
            break
        if k >= max_iter:
            status = "max_iter"
            break
        if n_f + n_g + 2 > budget:  # the trial f and its g
            status = "eval_budget"
            break

        bnorm = float(operator_norm())
        if gnorm < hist_min_g:
            hist_min_g = gnorm
        if bnorm > hist_max_b:
            hist_max_b = bnorm

        if history:
            radius = effective_radius(alpha, beta, delta, hist_min_g, hist_max_b)
        else:
            radius = effective_radius(alpha, beta, delta, gnorm, bnorm)
        if radius > _DELTA_MAX:
            radius = _DELTA_MAX
        # The run stops when radius < 1e-15 max(1, |x|), which can hold only
        # where radius < 1e-15 max(2 xbound, 1): |x| is computed only then,
        # and for a NaN bound. Each max(a, b) is written as the builtin
        # computes it, b if b > a else a, so a NaN 2 xbound stays NaN and
        # forces the exact |x|, and no builtin is called.
        x_scale = 2.0 * xbound
        if not radius >= _RADIUS_UNDERFLOW * (1.0 if 1.0 > x_scale else x_scale):
            xbound = _norm(x)
            if radius < _RADIUS_UNDERFLOW * (xbound if xbound > 1.0 else 1.0):
                status = "delta_underflow"
                break

        if one_d:
            step = step_1d(g, model, radius)
        else:
            if path is None:
                path = SteihaugPath(g, model, gnorm=gnorm)
            step = step_tcg(g, model, radius, path)
        x_trial = x + step.s

        f_at_k = f
        decrease = step.model_decrease
        f_abs = f_at_k if f_at_k >= 0.0 else -f_at_k
        decrease_floor = _DECREASE_FLOOR * (1.0 + f_abs)
        if decrease < -decrease_floor:
            raise SolveError(
                f"subproblem contract violation at k={k}: model decrease {decrease!r}"
            )

        if -decrease_floor < decrease < decrease_floor:  # |decrease| < floor, NaN not
            # no meaningful model decrease: count as unsuccessful, do not divide
            rho = math.nan
            iter_status = _U
        else:
            f_trial = float(eval_f(x_trial))
            n_f += 1
            rho = (f_at_k - f_trial) / decrease
            if rho >= eta2:
                iter_status = _VS
            elif rho >= eta1:
                iter_status = _S
            else:
                iter_status = _U

        if iter_status != _U:
            path = None  # x moves on
            g_new = np.asarray(eval_grad(x_trial), dtype=float)
            n_g += 1
            y = g_new - g
            ynorm = _norm(y)  # finite only if g_new is, g being finite
            if not (isfinite(f_trial) and (isfinite(ynorm) or np.isfinite(g_new).all())):
                raise SolveError(f"{problem.name}: non-finite f or gradient at k={k}")
            snorm = step.snorm
            if snorm > 0:
                ratio = ynorm / snorm
                if ratio > lip:  # lip = max(lip, ratio), which a NaN ratio leaves
                    lip = ratio
            update(step.s, y)
            x, f, g = x_trial, f_trial, g_new
            xbound += snorm
        elif update_rejected:
            # Assumption-2 regime: pay one extra gradient for the rejected pair
            g_trial = np.asarray(eval_grad(x_trial), dtype=float)
            n_g += 1
            if np.all(np.isfinite(g_trial)) and update(step.s, g_trial - g):
                path = None

        try:
            ak = a_k(delta, hist_max_b, hist_min_g, alpha, beta)
        except ArithmeticError as exc:
            raise SolveError(f"{problem.name}: a_k out of the float range at k={k}") from exc
        log_f(f_at_k)
        log_gnorm(gnorm)
        log_delta(delta)
        log_radius(radius)
        log_rho(rho)
        log_status(iter_status)
        log_bnorm(bnorm)
        log_ak(ak)
        log_cg_iters(step.cg_iters)
        log_decrease(decrease)
        log_snorm(step.snorm)
        if iter_status == _VS:
            delta = gamma3 * delta
            if delta > _DELTA_MAX:
                delta = _DELTA_MAX
        elif iter_status == _U:
            delta = gamma2 * delta
        k += 1

    n_unsucc = log.status.count(_U)
    report = SolveReport(
        status=status,
        iterations=k,
        n_succ_total=k - n_unsucc,
        n_unsucc_total=n_unsucc,
        final_f=f,
        final_gnorm=gnorm,
        evals=EvalCounter(n_f, n_g),
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
    clipped = (status == _VS) & (nxt == _DELTA_MAX)
    bad_update = ~(in_interval | clipped)
    moved = (status == _U) & (f[1:] != f[:-1])

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

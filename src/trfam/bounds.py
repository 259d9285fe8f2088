"""Closed-form worst-case iteration bounds and run audits.

Successful-iteration bounds (growth envelope counted in successful
iterations), the matching unsuccessful-iteration bound, and total-iteration
bounds (envelope counted in the iteration index) are evaluated in the log
domain so the exponential p = 1 regime never overflows: a bound is carried
as its natural log, with the plain value attached whenever it fits in a
double comfortably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .driver import SolveReport, TrParams, theoretical_a_min
from .hessians import measure_envelope

_REPRESENTABLE_LOG = 690.0  # exp(690) ~ 5.6e299 < 1e300


@dataclass(frozen=True)
class BoundInputs:
    """Everything the calculators need, in one bag."""

    f0: float
    f_low: float
    a_min: float
    mu: float
    p: float
    eps: float
    alpha: float = 0.0
    beta: float = 0.0
    eta1: float = 0.1
    eta2: float = 0.75
    kappa_mdc: float = 0.5
    gamma1: float = 0.25
    gamma2: float = 0.5
    gamma4: float = 2.0
    delta0: float = 1.0
    k0: int = 0
    L: float = 1.0

    def __post_init__(self):
        if self.f0 < self.f_low:
            raise ValueError("f0 must be at least f_low")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not self.mu >= 0:  # NaN fails too
            raise ValueError("mu must be nonnegative")
        for name in ("a_min", "eps", "eta1", "kappa_mdc", "gamma1", "gamma2", "delta0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_params(cls, params: TrParams, **kw) -> "BoundInputs":
        return cls(
            alpha=params.alpha,
            beta=params.beta,
            eta1=params.eta1,
            eta2=params.eta2,
            kappa_mdc=params.kappa_mdc,
            gamma1=params.gamma1,
            gamma2=params.gamma2,
            gamma4=params.gamma4,
            delta0=params.delta0,
            **kw,
        )


@dataclass(frozen=True)
class LogBound:
    """A possibly huge bound: ln(bound), plus the bound itself when < 1e300."""

    log_value: float
    representable: float | None

    @classmethod
    def from_log(cls, log_value: float) -> "LogBound":
        if log_value < _REPRESENTABLE_LOG:
            return cls(log_value, math.exp(log_value))
        return cls(log_value, None)

    def exceeds(self, count: float) -> bool:
        """True when the bound is at least ``count``."""
        if count <= 0:
            return True
        return self.log_value >= math.log(count) * (1.0 - 1e-12)


def kappa1(inputs: BoundInputs) -> float:
    """(f(x0) - f_low) / (eta1 kappa_mdc a_min)."""
    return (inputs.f0 - inputs.f_low) / (inputs.eta1 * inputs.kappa_mdc * inputs.a_min)


def _logbound_minus_one(log_plus_one: float) -> LogBound:
    """LogBound for exp(log_plus_one) - 1 given log_plus_one >= 0."""
    if log_plus_one <= 0.0:
        return LogBound(-math.inf, 0.0)
    if log_plus_one < _REPRESENTABLE_LOG:
        value = math.expm1(log_plus_one)
        return LogBound(math.log(value), value)
    # the -1 is far below the representation noise here
    return LogBound(log_plus_one + math.log1p(-math.exp(-log_plus_one)), None)


def bound_successful(inputs: BoundInputs) -> LogBound:
    """Bound on the number of successful iterations before the tolerance hit:
    [(1-p)(1+2mu) kappa1 eps^-2 + 1]^(1/(1-p)) - 1 for p < 1, and
    exp((1+2mu) kappa1 eps^-2) - 1 for p = 1.
    """
    X = (1.0 + 2.0 * inputs.mu) * kappa1(inputs) * inputs.eps**-2
    if inputs.p == 1.0:
        return _logbound_minus_one(X)
    base = (1.0 - inputs.p) * X + 1.0
    return _logbound_minus_one(math.log(base) / (1.0 - inputs.p))


def bound_unsuccessful(inputs: BoundInputs, s_eps: float) -> float:
    """|log_g2(g4)| S + (1-alpha) log_g2(eps) + (beta-1) log_g2(1+mu(1+S^p))
    + log_g2(a_min/Delta0), with S the successful-iteration count."""
    if s_eps < 0:
        raise ValueError("s_eps must be nonnegative")
    lg = math.log(inputs.gamma2)

    def log_g2(x: float) -> float:
        return math.log(x) / lg

    return (
        abs(log_g2(inputs.gamma4)) * s_eps
        + (1.0 - inputs.alpha) * log_g2(inputs.eps)
        + (inputs.beta - 1.0) * log_g2(1.0 + inputs.mu * (1.0 + s_eps**inputs.p))
        + log_g2(inputs.a_min / inputs.delta0)
    )


def choose_tau(gamma2: float, gamma4: float) -> int:
    """Smallest positive integer tau with gamma4 * gamma2^(tau-1) < 1."""
    if not (0.0 < gamma2 < 1.0 <= gamma4):
        raise ValueError("need 0 < gamma2 < 1 <= gamma4")
    tau = 1
    while not gamma4 * gamma2 ** (tau - 1) < 1.0:
        tau += 1
    return tau


def xi_beta(
    gamma2: float,
    gamma4: float,
    tau: int,
    mu: float,
    p: float,
    beta: float,
    rel_tol: float = 1e-12,
) -> float:
    """Upper estimate of sum_{k>=0} q^(k/tau) / (1 + mu(1 + k^p))^beta with
    q = gamma4 gamma2^(tau-1) < 1, truncated with a geometric tail bound.

    The k = 0 term is included: iterations are indexed from 0 and including
    it only enlarges the estimate, keeping it a valid bound ingredient.
    """
    q = gamma4 * gamma2 ** (tau - 1)
    if not q < 1.0:
        raise ValueError("series diverges: need gamma4 * gamma2^(tau-1) < 1")
    ratio_geo = q ** (1.0 / tau)

    def r(k: int) -> float:
        return 1.0 + mu * (1.0 + float(k) ** p)

    total = 0.0
    k = 0
    while True:
        total += q ** (k / tau) / r(k) ** beta
        nxt = q ** ((k + 1) / tau) / r(k + 1) ** beta
        # denominators are non-decreasing, so for beta >= 0 the tail is
        # geometric; for beta < 0 inflate the ratio by the next growth factor
        tail_ratio = ratio_geo if beta >= 0 else ratio_geo * (r(k + 2) / r(k + 1)) ** (-beta)
        if tail_ratio < 1.0:
            tail = nxt / (1.0 - tail_ratio)
            if tail <= rel_tol * total:
                return total + tail
        k += 1
        if k > 10**7:
            raise ValueError("xi_beta failed to converge within 1e7 terms")


def kappa2(inputs: BoundInputs, tau: int) -> float:
    """tau (f(x0) - f_low) / (eta1 kappa_mdc a_min)."""
    return tau * (inputs.f0 - inputs.f_low) / (inputs.eta1 * inputs.kappa_mdc * inputs.a_min)


def kappa3(inputs: BoundInputs, xi: float) -> float:
    """Delta0 xi_beta / a_min."""
    return inputs.delta0 * xi / inputs.a_min


@dataclass(frozen=True)
class TotalBound:
    bound: LogBound
    eps2_contribution: float  # kappa2 * eps^-2
    eps_alpha_contribution: float  # kappa3 * eps^(alpha-1)


def bound_total_k(inputs: BoundInputs, tau: int, xi: float) -> TotalBound:
    """Total-iteration bound under the iteration-counter growth envelope.

    p < 1: [(1-p) A (k2 eps^-2 + k3 eps^(alpha-1)) + (k0+1)^(1-p)]^(1/(1-p)) - 1
    with A = (1 + mu(1 + (1+k0)^p)) / (1+k0)^p;
    p = 1: (k0+1) exp[(1 + mu(2+k0))/(1+k0) (k2 eps^-2 + k3 eps^(alpha-1))] - 1.
    """
    k0 = inputs.k0
    k2 = kappa2(inputs, tau)
    k3 = kappa3(inputs, xi)
    t_eps2 = k2 * inputs.eps**-2
    t_alpha = k3 * inputs.eps ** (inputs.alpha - 1.0)
    if inputs.p == 1.0:
        X = (1.0 + inputs.mu * (2.0 + k0)) / (1.0 + k0) * (t_eps2 + t_alpha)
        lb = _logbound_minus_one(X + math.log(k0 + 1.0))
    else:
        A = (1.0 + inputs.mu * (1.0 + (1.0 + k0) ** inputs.p)) / (1.0 + k0) ** inputs.p
        inner = (1.0 - inputs.p) * A * (t_eps2 + t_alpha) + (k0 + 1.0) ** (1.0 - inputs.p)
        lb = _logbound_minus_one(math.log(inner) / (1.0 - inputs.p))
    return TotalBound(lb, t_eps2, t_alpha)


# ---------------------------------------------------------------------------
# Run audits
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    name: str
    observed: float
    bound_log: float
    bound_value: float | None
    ok: bool


@dataclass
class AuditResult:
    assumption: str
    mu_hat_successful: float
    mu_hat_iteration: float
    a_min: float
    a_min_margin: float
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def audit_run(
    report: SolveReport,
    inputs: BoundInputs,
    assumption: str = "successful_counter",
) -> AuditResult:
    """Compare a finished run against the applicable closed-form bounds.

    The growth constant is measured from the run's own log (the smallest mu
    making the envelope hold), so a failed check indicates an implementation
    bug, not a modeling gap. Successful/unsuccessful counts are checked
    against the successful-counter bounds; total iterations against the
    iteration-counter bound when that assumption is requested.
    """
    if assumption not in ("successful_counter", "iteration_counter"):
        raise ValueError(f"unknown assumption {assumption!r}")
    if report.status != "first_order":
        raise ValueError(f"audit needs a first_order run, got {report.status!r}")

    mu_s = measure_envelope(report.log, inputs.p, "successful") if report.log else 0.0
    mu_k = measure_envelope(report.log, inputs.p, "iteration") if report.log else 0.0
    checks: list[BoundCheck] = []

    in_s = replace(inputs, mu=max(mu_s, 1e-300))
    sb = bound_successful(in_s)
    checks.append(
        BoundCheck(
            "successful_iterations",
            report.n_succ_total,
            sb.log_value,
            sb.representable,
            sb.exceeds(report.n_succ_total),
        )
    )
    ub = bound_unsuccessful(in_s, float(report.n_succ_total))
    checks.append(
        BoundCheck(
            "unsuccessful_iterations",
            report.n_unsucc_total,
            math.log(ub) if ub > 0 else -math.inf,
            ub,
            report.n_unsucc_total <= ub * (1.0 + 1e-12) + 1e-12,
        )
    )
    if assumption == "iteration_counter":
        in_k = replace(inputs, mu=max(mu_k, 1e-300))
        tau = choose_tau(inputs.gamma2, inputs.gamma4)
        xi = xi_beta(inputs.gamma2, inputs.gamma4, tau, in_k.mu, inputs.p, inputs.beta)
        tb = bound_total_k(in_k, tau, xi)
        checks.append(
            BoundCheck(
                "total_iterations",
                report.iterations,
                tb.bound.log_value,
                tb.bound.representable,
                tb.bound.exceeds(report.iterations),
            )
        )

    min_a = min((r.a_k for r in report.log), default=math.inf)
    margin = min_a / inputs.a_min if inputs.a_min > 0 else math.inf
    return AuditResult(
        assumption=assumption,
        mu_hat_successful=mu_s,
        mu_hat_iteration=mu_k,
        a_min=inputs.a_min,
        a_min_margin=margin,
        checks=checks,
    )


def classical_reference_rows(inputs: BoundInputs) -> dict[str, float]:
    """Printed-reference specializations of the total bound for the bounded
    case (kappa_mdc = 1/2, L >= 1, alpha = beta = 1), next to the classical
    textbook bound that assumes |grad f(x0)| <= Delta0.

    These rows are informational table entries, not separately audited.
    """
    L, mu = inputs.L, inputs.mu
    g2, g4 = inputs.gamma2, inputs.gamma4
    lead = abs(math.log(g4) / math.log(g2)) + 1.0
    gap = inputs.f0 - inputs.f_low
    e1, g1 = inputs.eta1, inputs.gamma1
    slack = 1.0 - inputs.eta2
    scaled = (
        lead * 4.0 * (L + 2 * mu * L) / (g1 * e1 * slack) * gap * inputs.eps**-2
        + math.log(g1 * slack / (2 * L * inputs.delta0)) / math.log(g2)
    )
    classical = (
        lead * 4.0 * (L + 2 * mu) / (g1 * e1 * slack) * gap * inputs.eps**-2
        + math.log(inputs.eps) / math.log(g2)
        + math.log(g1 * slack / (2 * (L + 2 * mu) * inputs.delta0)) / math.log(g2)
    )
    return {"scaled_radius_p0": scaled, "classical_p0": classical}

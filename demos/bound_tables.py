"""Evaluate the complexity bounds and audit real runs against them.

Run as: python3 demos/bound_tables.py
"""

from trfam import (
    AdversarialSpec,
    BoundInputs,
    TrParams,
    audit_run,
    bound_successful,
    bound_total_k,
    bound_unsuccessful,
    kappa1,
    verify_sharpness,
)
from trfam.adversarial import bound_inputs

# --- the calculators ------------------------------------------------------
# With the envelope counted in successful iterations, the bound on their
# number is polynomial in 1/eps for p < 1 and exponential at p = 1. Bounds
# are carried in the log domain so the p = 1 regime cannot overflow.
print("Successful-iteration bound vs p (mu = 1, kappa1 = 1, eps = 0.1):")
f0 = 0.1 * 0.5 * 0.03125  # makes kappa1 = 1 under the default constants
for p in (0.0, 0.5, 0.9, 1.0):
    inp = BoundInputs(TrParams(), f0=f0, f_low=0.0, a_min=0.03125, mu=1.0, p=p, eps=0.1)
    b = bound_successful(inp)
    shown = f"{b.representable:.4g}" if b.representable is not None else "(too large)"
    print(f"  p = {p:3g}: bound = {shown:>12}  ln = {b.log_value:.4g}")

# The unsuccessful count follows from the successful one; with
# alpha = beta = 1 the epsilon-dependent terms cancel.
inp = BoundInputs(TrParams(alpha=1.0, beta=1.0), f0=f0, f_low=0.0, a_min=0.03125, mu=1.0,
                  p=0.0, eps=0.1)
print(f"\nWith S = 100: |U| <= {bound_unsuccessful(inp, 100.0):.4g} "
      f"(alpha = beta = 1 collapses the log terms)")

# Under the iteration-counter envelope the bound needs the series xi_beta
# and the smallest tau with gamma4 gamma2^(tau-1) < 1; bound_total_k finds
# both from its inputs.
tb = bound_total_k(inp)
print(f"tau = {tb.tau}, xi_beta = {tb.xi:.6g}, "
      f"total-iteration bound ln = {tb.bound.log_value:.4g}")

# --- auditing a real run --------------------------------------------------
# On the worst-case instances the Lipschitz constant is known exactly (the
# interpolant's second derivative is piecewise linear), so the audit is a
# guarantee check: a failure would be an implementation bug. bound_inputs
# reads the exact f0, infimum and L off the replay's own sharpness report,
# and derives a_min from its first a_k.
print("\nAudit of the p = 0.5, eps = 0.5 worst-case run:")
sharp, report = verify_sharpness(AdversarialSpec(0.5, 0.5))
inputs = bound_inputs(sharp, report)
print(f"  exact L = {inputs.L:.4g}, a_min = {inputs.a_min:.4g}, "
      f"kappa1 = {kappa1(inputs):.4g}")
audit = audit_run(report, inputs, "successful_counter")
print(f"  measured growth constant mu_hat = {audit.mu_hat_successful:.4g}")
for check in audit.checks:
    bound = f"{check.bound_value:.6g}" if check.bound_value is not None else "(log-domain)"
    print(f"  {check.name}: observed {check.observed:g} <= bound {bound} -> "
          f"{'ok' if check.ok else 'VIOLATION'}")
print(f"  min a_k / a_min = {audit.a_min_margin:.3f}")
assert audit.passed

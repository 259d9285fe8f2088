"""Build the slow-convergence instances and watch the solver hit the
worst case exactly.

The construction lays down knots where the gradient magnitude decays from
2*eps to eps while the model Hessians grow like k^p. A C^1 interpolant
through the knots then forces the method to spend exactly
k_eps = floor(eps^(-2/(1-p))) iterations (p < 1), or floor(exp(c eps^-2))
iterations at p = 1.

Run as: python3 demos/worst_case_tour.py
"""

from trfam import AdversarialSpec, k_epsilon, verify_sharpness

for p in (0.0, 0.5, 1.0):
    spec = AdversarialSpec(eps=0.5, p=p, c=1.0)
    # the replay also writes the function and its slope on a grid, ready
    # for plotting, from the instance it builds
    out = f"adversarial_p{p:g}.csv"
    sharp, _ = verify_sharpness(spec, emit_function=out)
    assert sharp.passed
    print(f"p = {p:g}: k_eps = {sharp.k_eps}, f0 = {sharp.f0:g}, Delta0 = {sharp.delta0:g}")
    print(f"    driver took {sharp.iterations} iterations "
          f"(every one very successful: {sharp.all_very_successful}), "
          f"max |rho - 2| = {sharp.max_rho_error:.1e}, "
          f"final |f'| = {sharp.final_grad_abs}")
    print(f"    wrote {out} (columns x, f, fprime)")

# Shrinking eps at p = 1 shows the exponential blow-up; the generator caps
# the knot count and refuses astronomically long instances loudly.
print("\nGrowth of k_eps with 1/eps at p = 1, c = 1:")
for eps in (0.9, 0.7, 0.5, 0.35, 0.25):
    print(f"  eps = {eps:4g}: k_eps = {k_epsilon(AdversarialSpec(eps, 1.0, 1.0)):,}")
try:
    k_epsilon(AdversarialSpec(0.05, 1.0, 1.0))
except ValueError as exc:
    print(f"  eps = 0.05: {exc}")

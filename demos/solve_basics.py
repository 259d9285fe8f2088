"""Tour of the solver: radius variants, Hessian models, and the run log.

Run as: python3 demos/solve_basics.py
"""

from trfam import TrParams, build_model, get_problem, log_to_csv, solve

problem = get_problem("rosenbrock")
print(f"Problem: {problem.name}, dim {problem.dim}, start {problem.x0}")

# The radius family is parameterized by (alpha, beta):
#   radius = |grad|^alpha / (1 + |B|)^beta * Delta.
# (0, 0) is the classical method; (1, 1) folds both the gradient and the
# model-Hessian norm into the radius.
for alpha, beta in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
    params = TrParams(alpha=alpha, beta=beta)
    report = solve(problem, params, build_model("exact", problem), eps=1e-6)
    print(
        f"  alpha={alpha:g} beta={beta:g}: {report.status} in "
        f"{report.iterations} iterations ({report.n_succ_total} accepted), "
        f"f* = {report.final_f:.3e}"
    )

# Quasi-Newton models replace the exact Hessian. Pairs are only ingested on
# accepted steps (the usual practice); the norm |B_k| the scaled radius sees
# is computed from the compact representation.
for mode in ("lbfgs", "lsr1", "zero"):
    report = solve(problem, TrParams(), build_model(mode, problem, memory=5), eps=1e-6)
    print(
        f"  {mode:>5}: {report.status} in {report.iterations} iterations, "
        f"{report.evals.n_f} f-evals / {report.evals.n_g} g-evals"
    )

# Every run carries a full per-iteration log; the CSV mirrors it exactly.
report = solve(problem, TrParams(), build_model("exact", problem), eps=1e-6)
print("\nFirst five log rows:")
for line in log_to_csv(report).splitlines()[:6]:
    print(" ", line)

# The monitor records a_k, the composite the complexity analysis bounds from
# below; on a healthy run it stays above the theoretical floor.
print(f"\nmin a_k over the run: {min(report.log.a_k):.4g}")
print(f"theoretical floor (estimated L): {report.a_min_theoretical:.4g}")

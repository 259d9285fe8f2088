"""Run the variant matrix on the built-in collection and emit profiles.

Writes matrix.csv plus profile_<metric>.csv/.svg into demos_out/. The four
variants share every constant except the radius scaling, mirroring the
experimental design the radius family was proposed with.

Run as: python3 demos/benchmark_profiles.py
"""

from trfam.bench import (
    DEFAULT_VARIANTS, METRICS, default_matrix_specs, emit, performance_profile, run_matrix,
)

specs = default_matrix_specs()  # the cells trfam bench runs by default
print(f"Running {len(specs)} solves ({len(DEFAULT_VARIANTS)} variants x full collection)...")
matrix = run_matrix(specs)

for variant in matrix.variants:
    solved = sum(matrix.cells[(p, variant)].solved for p in matrix.problems)
    fevals = sum(
        matrix.cells[(p, variant)].cost_f
        for p in matrix.problems
        if matrix.cells[(p, variant)].solved
    )
    print(f"  variant {variant}: solved {solved}/{len(matrix.problems)}, "
          f"{fevals} f-evals on solved problems")

profiles = {m: performance_profile(matrix, m) for m in METRICS}
written = emit(matrix, profiles, "demos_out")
print("\nWrote:")
for path in written:
    print(f"  {path}")

# A profile value at tau is the fraction of problems a variant solved within
# tau times the best cost; the value at tau = 1 ranks pure wins.
print("\nFraction of wins (profile value at tau = 1, f-evals):")
for curve in profiles["fevals"]:
    print(f"  {curve.variant}: {curve.at(1.0):.2f}")

"""Noise floor for changes of trajectory: how far 1-ulp rounding moves each
benchmark cell.

    python3 benchmarks/sensitivity.py --seed 0 --perturb 20

Run from the repository root; trfam is imported from ``src/`` and the cells
from ``perfbench/workloads.py``: the matrix-exact and matrix-qn cells of the
given seed, each solved by ``trfam.bench.solve_cell``. Each cell is solved
once as it is, then once per perturbation seed 0 .. N-1. In a perturbed run
every entry of every ``B v`` product, and every |B| (``operator_norm``),
moves by -1, 0 or +1 ulp (``np.nextafter``), drawn from a generator seeded
with the perturbation seed. The wrappers sit on the model instance, so the
program itself is unchanged. Prints one line per cell,

    workload label status iterations | statuses seen | min median max iterations

then the fragile cells (those whose status moved in some perturbed run), and
the spread of ``solved`` (first_order cells) and of total iterations over
the perturbed runs. A change of trajectories that flips a fragile cell's
status is within this noise; a flip in a stable cell needs a reason.
``--cell`` keeps only the cells whose ``workload label`` contains one of the
given substrings.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from trfam import bench  # noqa: E402
from trfam.hessians import build_model  # noqa: E402


def perturb(model, seed: int) -> None:
    """Move each entry of every product of ``model``, and every |B| it
    reports, by -1, 0 or +1 ulp."""
    rng = np.random.default_rng(seed)
    apply, operator_norm = model.apply, model.operator_norm

    def nudged(out):
        step = rng.integers(-1, 2, size=np.shape(out))
        return np.where(step == 0, out, np.nextafter(out, np.copysign(np.inf, step)))

    model.apply = lambda v: nudged(apply(v))
    model.operator_norm = lambda: float(nudged(operator_norm()))


def run_cell(cell, seed: int | None) -> tuple[str, int]:
    """(status, iterations) of one cell, perturbed with ``seed`` unless None."""
    spec = bench.RunSpec(cell.problem.name, cell.alpha, cell.beta, cell.hessian,
                         max_iter=cell.max_iter)
    model = build_model(spec.hessian, cell.problem, memory=spec.memory)
    if seed is not None:
        perturb(model, seed)
    report = bench.solve_cell(spec, cell.problem, model)
    return report.status, report.iterations


def spread(values) -> str:
    return f"{min(values)} {statistics.median(values):g} {max(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (start points)")
    ap.add_argument("--perturb", type=int, default=20, help="number of perturbed runs")
    ap.add_argument("--cell", action="append", default=[],
                    help="keep cells whose 'workload label' contains this (repeatable)")
    args = ap.parse_args(argv)
    if args.perturb < 1:
        ap.error("--perturb must be at least 1")
    cells = [(name, cell) for name, wl in (
        ("matrix-exact", workloads.matrix_exact(args.seed, None)),
        ("matrix-qn", workloads.matrix_qn(args.seed)))
        for cell in wl.cells]
    cells = [(name, cell) for name, cell in cells
             if not args.cell or any(pat in f"{name} {cell.label}" for pat in args.cell)]
    if not cells:
        ap.error("no cell matches --cell")
    seeds = range(args.perturb)
    fragile = []
    solved = Counter()  # first_order cells per perturbation seed
    total = Counter()  # iterations per perturbation seed
    base_solved = base_total = 0
    for name, cell in cells:
        status, iters = run_cell(cell, None)
        base_solved += status == "first_order"
        base_total += iters
        runs = [run_cell(cell, seed) for seed in seeds]
        for seed, (st, it) in zip(seeds, runs):
            solved[seed] += st == "first_order"
            total[seed] += it
        seen = Counter(st for st, _ in runs)
        print(f"{name} {cell.label} {status} {iters} | "
              + " ".join(f"{st}:{n}" for st, n in sorted(seen.items()))
              + f" | {spread([it for _, it in runs])}", flush=True)
        if set(seen) != {status}:
            fragile.append(f"{name} {cell.label} {status} -> "
                           + ", ".join(f"{st} {n}/{len(runs)}" for st, n in sorted(seen.items())
                                       if st != status))
    print(f"fragile cells: {len(fragile)} of {len(cells)}")
    for ln in fragile:
        print("  " + ln)
    print(f"solved: unperturbed {base_solved}, perturbed min median max "
          f"{spread([solved[s] for s in seeds])}")
    print(f"total iterations: unperturbed {base_total}, perturbed min median max "
          f"{spread([total[s] for s in seeds])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Trajectory digests of every benchmark cell, for bit-for-bit comparisons.

    python3 benchmarks/digests.py --seed 0

Run from the repository root; trfam is imported from ``src/`` and the cells
from ``perfbench/workloads.py``: the matrix-exact and matrix-qn cells and the
worst-case specs of the given seed, solved as the benchmark solves them.
Prints one line per cell,

    workload label sha256(log_to_csv) sha256(log_to_csv without rho) status iterations n_f n_g

and ends with one SHA-256 over all those lines. Two commits whose outputs
match took the same iterates, byte for byte, in every cell. The second
digest leaves out the rho column, the one column that reads the model
decrease: two commits that round the decrease differently but take the
same iterates match on it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from trfam import adversarial, driver  # noqa: E402
from trfam.hessians import build_model  # noqa: E402


RHO = driver.CSV_HEADER.split(",").index("rho")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_rho(csv: str) -> str:
    rows = [row.split(",") for row in csv.splitlines()]
    return "".join(",".join(row[:RHO] + row[RHO + 1:]) + "\n" for row in rows)


def line(workload: str, label: str, report: driver.SolveReport) -> str:
    csv = driver.log_to_csv(report)
    return (f"{workload} {label} {sha256(csv)} {sha256(without_rho(csv))} {report.status} "
            f"{report.iterations} {report.evals.n_f} {report.evals.n_g}")


def matrix_lines(name: str, wl) -> list[str]:
    out = []
    for cell in wl.cells:
        model = build_model(cell.hessian, cell.problem, memory=workloads.MEMORY)
        params = driver.TrParams(alpha=cell.alpha, beta=cell.beta)
        report = driver.solve(cell.problem, params, model, eps=workloads.EPS,
                              max_iter=cell.max_iter, eval_budget=workloads.EVAL_BUDGET)
        out.append(line(name, cell.label, report))
    return out


def worst_case_lines(seed: int) -> list[str]:
    out = []
    for case in workloads.worst_case(seed).cases:
        _, report = adversarial.verify_sharpness(case.spec)
        out.append(line("worst-case", case.label, report))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    lines = (matrix_lines("matrix-exact", workloads.matrix_exact(args.seed, None))
             + matrix_lines("matrix-qn", workloads.matrix_qn(args.seed))
             + worst_case_lines(args.seed))
    for ln in lines:
        print(ln)
    print("all", sha256("\n".join(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Trajectory digests of every benchmark cell, for bit-for-bit comparisons.

    python3 benchmarks/digests.py --seed 0

Run from the repository root; trfam is imported from ``src/`` and the cells
from ``perfbench/workloads.py``: the matrix-exact and matrix-qn cells and the
worst-case specs of the given seed, each matrix cell solved by
``trfam.bench.solve_cell``. Prints one line per cell,

    workload label sha256(log_to_csv) sha256(log_to_csv without rho) status iterations n_f n_g

and then one SHA-256 over all those lines. Two commits whose outputs
match took the same iterates, byte for byte, in every cell. The second
digest leaves out the rho column, the one column that reads the model
decrease: two commits that round the decrease differently but take the
same iterates match on it.

Last come the audits of the worst-case runs, one line per case and
assumption,

    audit label assumption sha256(audit)

where the digest covers the repr of every ``BoundCheck`` field,
``mu_hat_successful``, ``a_min`` and ``a_min_margin``. The audit inputs are
``trfam.adversarial.bound_inputs`` of the case's spec and run.

    python3 benchmarks/digests.py --seed 0 --against before.txt

compares with ``before.txt``, a saved output of the same seed, instead: it
prints one line per cell whose line differs, with status and iterations
before -> after ("-" for a cell on one side only, "(rho only)" where just
the rho column differs), one line per audit that differs, or the single
line ``no changed cells``.

    python3 benchmarks/digests.py --seed 0 --against before.txt --floor floor.txt

also ends each changed cell's line with its verdict from ``floor.txt``, a
saved ``benchmarks/sensitivity.py`` output of the commit ``before.txt``
came from: ``fragile`` when some perturbed run of the cell ended with
another status, ``stable`` when none did, and ``no floor`` for a cell that
output does not list.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from trfam import adversarial, bench, bounds, driver  # noqa: E402
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
        spec = bench.RunSpec(cell.problem.name, cell.alpha, cell.beta, cell.hessian,
                             max_iter=cell.max_iter)
        model = build_model(spec.hessian, cell.problem, memory=spec.memory)
        out.append(line(name, cell.label, bench.solve_cell(spec, cell.problem, model)))
    return out


def audit_lines(case, report: driver.SolveReport) -> list[str]:
    inputs = adversarial.bound_inputs(case.spec, report)
    out = []
    for assumption in ("successful_counter", "iteration_counter"):
        audit = bounds.audit_run(report, inputs, assumption)
        values = [getattr(c, f.name) for c in audit.checks for f in fields(c)]
        values += [audit.mu_hat_successful, audit.a_min, audit.a_min_margin]
        digest = sha256("\n".join(map(repr, values)))
        out.append(f"audit {case.label} {assumption} {digest}")
    return out


def worst_case_lines(seed: int) -> tuple[list[str], list[str]]:
    """The trajectory line and the audit lines of every worst-case case."""
    out, audits = [], []
    for case in workloads.worst_case(seed).cases:
        _, report = adversarial.verify_sharpness(case.spec)
        out.append(line("worst-case", case.label, report))
        audits += audit_lines(case, report)
    return out, audits


def parse(lines) -> tuple[dict, dict]:
    """The cells and audits of an output: {(workload, label): [digest,
    digest without rho, status, iterations, n_f, n_g]} and
    {(label, assumption): digest}."""
    cells, audits = {}, {}
    for ln in lines:
        head, *rest = ln.split()
        if head == "audit":
            audits[tuple(rest[:2])] = rest[2]
        elif head != "all":
            cells[(head, rest[0])] = rest[1:]
    return cells, audits


def fragile(floor) -> dict:
    """{(workload, label): whether the cell is fragile} of a
    ``sensitivity.py`` output: its cell lines read
    ``workload label status iterations | status:count ... | spread``, and a
    cell is fragile when a status other than its own was seen."""
    out = {}
    for ln in floor:
        head, *parts = ln.split(" | ")
        if len(parts) == 2:
            workload, label, status, _ = head.split()
            seen = {item.rpartition(":")[0] for item in parts[0].split()}
            out[(workload, label)] = seen != {status}
    return out


def changes(before, after, floor=None) -> list[str]:
    """What differs from output ``before`` to output ``after``, one line per
    cell or audit, or ``["no changed cells"]``. With ``floor``, the lines of
    a ``sensitivity.py`` output, each cell line ends with its verdict."""
    old_cells, old_audits = parse(before)
    new_cells, new_audits = parse(after)
    verdicts = None if floor is None else fragile(floor)
    out = []
    for key in {**old_cells, **new_cells}:
        old, new = old_cells.get(key), new_cells.get(key)
        if old != new:
            state = [f"{c[2]} {c[3]}" if c else "-" for c in (old, new)]
            rho_only = old and new and old[1:] == new[1:]
            verdict = "" if verdicts is None else " " + {
                True: "fragile", False: "stable", None: "no floor"}[verdicts.get(key)]
            out.append(f"{key[0]} {key[1]} {state[0]} -> {state[1]}"
                       + (" (rho only)" if rho_only else "") + verdict)
    for key in {**old_audits, **new_audits}:
        if old_audits.get(key) != new_audits.get(key):
            out.append(f"audit {key[0]} {key[1]} changed")
    return out or ["no changed cells"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--against", type=Path, metavar="FILE",
                    help="a saved output of the same seed; print only what differs from it")
    ap.add_argument("--floor", type=Path, metavar="FILE",
                    help="with --against: a saved sensitivity.py output of the same seed; "
                         "end each changed cell's line with fragile or stable")
    args = ap.parse_args(argv)
    if args.floor is not None and args.against is None:
        ap.error("--floor needs --against")
    lines = (matrix_lines("matrix-exact", workloads.matrix_exact(args.seed, None))
             + matrix_lines("matrix-qn", workloads.matrix_qn(args.seed)))
    worst, audits = worst_case_lines(args.seed)
    lines += worst
    if args.against is not None:
        floor = None if args.floor is None else args.floor.read_text().splitlines()
        for ln in changes(args.against.read_text().splitlines(), lines + audits, floor):
            print(ln)
        return 0
    for ln in lines:
        print(ln)
    print("all", sha256("\n".join(lines)))
    for ln in audits:
        print(ln)
    return 0


if __name__ == "__main__":
    sys.exit(main())

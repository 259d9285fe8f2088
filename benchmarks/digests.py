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

Next come the audits of the worst-case runs, one line per case and
assumption,

    audit label assumption sha256(audit)

where the digest covers the repr of every ``BoundCheck`` field,
``mu_hat_successful``, ``a_min`` and ``a_min_margin``. The audit inputs are
``trfam.adversarial.bound_inputs`` of the case's replay, read off its own
sharpness report.

Last come the family's other regimes. The lines above are the benchmark's
own: current-mode radii and no update on rejected steps. After the audits,
each matrix cell is solved again in history mode (``radius_mode =
"history"``), and each matrix-qn cell with the pair update on rejected
steps (``update_on_unsuccessful``), alone and in history mode; the update
acts on pair models alone, so the exact cells do not run it. One cell line
per cell and regime, with the regime appended to the label,

    matrix-qn beale/lsr1/1_1/history+unsuccessful ...

and one SHA-256 over those lines. Everything before them reads as a
digests.py without regimes prints it.

    python3 benchmarks/digests.py --seed 0 --perturb 60

also records the noise floor: how far 1-ulp rounding moves each matrix
cell in each regime. Each is solved once as it is, then once per
perturbation seed 0 .. N-1. In a perturbed run every entry of every
``B v`` product, and every |B| (``operator_norm``), moves by -1, 0 or +1
ulp (``np.nextafter``), drawn from a generator seeded with the
perturbation seed. The wrappers sit on the model instance, so the program
itself is unchanged. After the regime lines come one line per matrix cell
and regime,

    floor workload label status iterations | statuses seen | min median max iterations

then the fragile cells (those whose status moved in some perturbed run),
and the spread of ``solved`` (first_order runs) and of total iterations
over the perturbed runs, regimes included, each line starting with ``floor``.

    python3 benchmarks/digests.py --seed 0 --against before.txt

compares with ``before.txt``, a saved output of the same seed, instead: it
prints one line per cell whose line differs, with status and iterations
before -> after ("-" for a cell on one side only, "(rho only)" where just
the rho column differs), one line per audit that differs, or the single
line ``no changed cells``. When ``before.txt`` carries floor lines, each
changed cell's line ends with its verdict: ``fragile`` when some perturbed
run of the cell ended with another status, ``stable`` when none did, and
``no floor`` for a cell the floor does not list. A change of trajectories
that flips a fragile cell's status is within the noise; a flip in a
stable cell needs a reason.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
from collections import Counter
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from trfam import adversarial, bench, bounds, driver  # noqa: E402
from trfam.hessians import build_model  # noqa: E402


RHO = driver.CSV_HEADER.split(",").index("rho")

# Each regime's label suffix, the TrParams fields it sets and the matrix
# workloads it runs on, in output order; "" is the benchmark's own.
REGIMES = {
    "": ({}, ("matrix-exact", "matrix-qn")),
    "history": ({"radius_mode": "history"}, ("matrix-exact", "matrix-qn")),
    "unsuccessful": ({"update_on_unsuccessful": True}, ("matrix-qn",)),
    "history+unsuccessful": ({"radius_mode": "history", "update_on_unsuccessful": True},
                             ("matrix-qn",)),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_rho(csv: str) -> str:
    rows = [row.split(",") for row in csv.splitlines()]
    return "".join(",".join(row[:RHO] + row[RHO + 1:]) + "\n" for row in rows)


def line(workload: str, label: str, report: driver.SolveReport) -> str:
    csv = driver.log_to_csv(report)
    return (f"{workload} {label} {sha256(csv)} {sha256(without_rho(csv))} {report.status} "
            f"{report.iterations} {report.evals.n_f} {report.evals.n_g}")


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


def run_cell(cell, wrap=None, regime="") -> driver.SolveReport:
    """One matrix cell solved as the benchmark solves it, in one of the
    ``REGIMES``. ``wrap``, unless None, is called with the model before the
    solve and may put wrappers on the instance, as ``perturb`` does."""
    spec = bench.RunSpec(cell.problem.name, cell.alpha, cell.beta, cell.hessian,
                         max_iter=cell.max_iter)
    model = build_model(spec.hessian, cell.problem, memory=spec.memory)
    if wrap is not None:
        wrap(model)
    return bench.solve_cell(spec, cell.problem, model, **REGIMES[regime][0])


def label(cell, regime: str) -> str:
    return f"{cell.label}/{regime}" if regime else cell.label


def spread(values) -> str:
    return f"{min(values)} {statistics.median(values):g} {max(values)}"


def matrix_runs(seed: int) -> list[tuple]:
    """(workload, cell, regime, report) of every matrix cell of the seed in
    each regime it runs in, unperturbed, regime by regime."""
    cells = {"matrix-exact": workloads.matrix_exact(seed, None).cells,
             "matrix-qn": workloads.matrix_qn(seed).cells}
    return [(name, cell, regime, run_cell(cell, regime=regime))
            for regime, (_, names) in REGIMES.items() for name in names for cell in cells[name]]


def floor_lines(runs, perturbations: int):
    """The floor lines of ``runs``, (workload, cell, regime, unperturbed
    report) tuples, over perturbation seeds 0 .. perturbations-1, one cell
    line at a time."""
    seeds = range(perturbations)
    fragile = []
    solved = Counter()  # first_order runs per perturbation seed
    total = Counter()  # iterations per perturbation seed
    base_solved = base_total = 0
    for name, cell, regime, base in runs:
        base_solved += base.status == "first_order"
        base_total += base.iterations
        perturbed = [run_cell(cell, partial(perturb, seed=seed), regime) for seed in seeds]
        for seed, run in zip(seeds, perturbed):
            solved[seed] += run.status == "first_order"
            total[seed] += run.iterations
        seen = Counter(run.status for run in perturbed)
        yield (f"floor {name} {label(cell, regime)} {base.status} {base.iterations} | "
               + " ".join(f"{st}:{n}" for st, n in sorted(seen.items()))
               + f" | {spread([run.iterations for run in perturbed])}")
        if set(seen) != {base.status}:
            fragile.append(f"{name} {label(cell, regime)} {base.status} -> " + ", ".join(
                f"{st} {n}/{perturbations}" for st, n in sorted(seen.items())
                if st != base.status))
    yield f"floor fragile cells: {len(fragile)} of {len(runs)}"
    for ln in fragile:
        yield "floor   " + ln
    yield (f"floor solved: unperturbed {base_solved}, perturbed min median max "
           f"{spread([solved[s] for s in seeds])}")
    yield (f"floor total iterations: unperturbed {base_total}, perturbed min median max "
           f"{spread([total[s] for s in seeds])}")


def audit_lines(case, sharp: adversarial.SharpnessReport,
                report: driver.SolveReport) -> list[str]:
    inputs = adversarial.bound_inputs(sharp, report)
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
        sharp, report = adversarial.verify_sharpness(case.spec)
        out.append(line("worst-case", case.label, report))
        audits += audit_lines(case, sharp, report)
    return out, audits


def parse(lines) -> tuple[dict, dict, dict]:
    """The cells, audits and floor of an output: {(workload, label): [digest,
    digest without rho, status, iterations, n_f, n_g]}, {(label, assumption):
    digest} and {(workload, label): whether the floor finds the cell
    fragile}, read off its floor cell lines
    ``floor workload label status iterations | status:count ... | spread``."""
    cells, audits, floor = {}, {}, {}
    for ln in lines:
        head, *rest = ln.split()
        if head == "audit":
            audits[tuple(rest[:2])] = rest[2]
        elif head == "floor":
            if " | " in ln:
                seen = {item.rpartition(":")[0] for item in ln.split(" | ")[1].split()}
                floor[tuple(rest[:2])] = seen != {rest[2]}
        elif head != "all":
            cells[(head, rest[0])] = rest[1:]
    return cells, audits, floor


def changes(before, after) -> list[str]:
    """What differs from output ``before`` to output ``after``, one line per
    cell or audit, or ``["no changed cells"]``. When ``before`` carries floor
    lines, each cell line ends with its verdict."""
    old_cells, old_audits, floor = parse(before)
    new_cells, new_audits, _ = parse(after)
    out = []
    for key in {**old_cells, **new_cells}:
        old, new = old_cells.get(key), new_cells.get(key)
        if old != new:
            state = [f"{c[2]} {c[3]}" if c else "-" for c in (old, new)]
            rho_only = old and new and old[1:] == new[1:]
            verdict = "" if not floor else " " + {
                True: "fragile", False: "stable", None: "no floor"}[floor.get(key)]
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
                    help="a saved output of the same seed; print only what differs from it, "
                         "with a verdict from the floor lines it carries")
    ap.add_argument("--perturb", type=int, default=0, metavar="N",
                    help="append the noise floor: every matrix cell solved again with "
                         "perturbation seeds 0 .. N-1")
    args = ap.parse_args(argv)
    if args.perturb < 0:
        ap.error("--perturb must be at least 0")
    if args.perturb and args.against is not None:
        ap.error("--perturb records a floor for a later --against; it takes no --against")
    runs = matrix_runs(args.seed)
    lines, regime_lines = [], []
    for name, cell, regime, report in runs:
        (regime_lines if regime else lines).append(line(name, label(cell, regime), report))
    worst, audits = worst_case_lines(args.seed)
    lines += worst
    if args.against is not None:
        for ln in changes(args.against.read_text().splitlines(), lines + audits + regime_lines):
            print(ln)
        return 0
    for ln in lines:
        print(ln)
    print("all", sha256("\n".join(lines)))
    for ln in audits + regime_lines:
        print(ln)
    print("all", sha256("\n".join(regime_lines)))
    if args.perturb:
        for ln in floor_lines(runs, args.perturb):
            print(ln, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

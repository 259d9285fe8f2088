"""Python and C calls per iteration of ``driver.solve`` on the benchmark's
seed-0 operations: counts that host noise does not move.

    python3 benchmarks/calls.py

Run from the repository root; trfam is imported from ``src/`` and the cells
from ``perfbench/workloads.py``: each worst-case spec, replayed by
``verify_sharpness``, and the matrix-exact and matrix-qn cells, each solved
as ``digests.py`` solves it. A ``sys.setprofile`` hook counts the "call"
events (Python functions, ``solve`` itself included) and the "c_call"
events (builtins) from the entry into ``solve`` to its return, so building
instances, models and checks is not counted. Prints one line per worst-case
case and one per matrix workload,

    workload label iterations python_calls_per_iteration c_calls_per_iteration python numpy

where label is the case's, or the number of cells, and the last two fields
are the Python and numpy versions: C calls include numpy's own builtins,
and a matrix cell's Python calls include numpy's Python wrappers, so both
move with the versions.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from digests import run_cell  # noqa: E402
from trfam import adversarial, driver  # noqa: E402


def solve_calls(run) -> tuple[int, int, int]:
    """Call ``run()``, which returns a list of ``SolveReport``; return their
    iterations and the Python and C calls made inside ``driver.solve``."""
    code = driver.solve.__code__
    inside = python = c = 0

    def hook(frame, event, arg):
        nonlocal inside, python, c
        if event == "call" and frame.f_code is code:
            inside += 1
        if inside:
            python += event == "call"
            c += event == "c_call"
        if event == "return" and frame.f_code is code:
            inside -= 1

    sys.setprofile(hook)
    try:
        reports = run()
    finally:
        sys.setprofile(None)
    return sum(r.iterations for r in reports), python, c


def row(workload: str, label: str, run) -> str:
    iterations, python, c = solve_calls(run)
    return (f"{workload} {label} {iterations} {python / iterations:.2f} {c / iterations:.2f} "
            f"{platform.python_version()} {np.__version__}")


def worst_case_row(label: str, spec: adversarial.AdversarialSpec) -> str:
    return row("worst-case", label, lambda: [adversarial.verify_sharpness(spec)[1]])


def main() -> int:
    for case in workloads.worst_case(0).cases:
        print(worst_case_row(case.label, case.spec), flush=True)
    for name, wl in (("matrix-exact", workloads.matrix_exact(0, None)),
                     ("matrix-qn", workloads.matrix_qn(0))):
        print(row(name, f"cells={len(wl.cells)}", lambda: [run_cell(cell) for cell in wl.cells]),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

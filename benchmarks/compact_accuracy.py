"""Accuracy of the quasi-Newton products: every ``B v`` of the matrix-qn
cells against the compact form rebuilt from the window's pairs.

    python3 benchmarks/compact_accuracy.py --seed 0

Run from the repository root; trfam is imported from ``src/``, the cells
from ``perfbench/workloads.py``, the cell recipe from ``benchmarks/digests.py``
and the reference from ``tests/oracles.py``. Each matrix-qn cell of the
given seed is solved by ``digests.run_cell``, as the benchmark solves it,
with two wrappers on the model instance, so the program itself is unchanged:
``update`` records the pairs it admits, and ``apply`` compares each product
with ``compact_apply_reference`` over the last ``memory`` of them, which
solves with M on every call. A product is off when
|Bv - ref| > 1e-9 |ref|. That reference is a float64 solve with M, the
model's own route, so its errors are correlated with the model's and it
misses products that are truly off on ill-conditioned windows. Each
product it flags, and each product whose window has cond(M) > 1e6, is
checked again against ``compact_apply_exact``, the product in exact
rational arithmetic. Prints one line per product off against either,

    off label error cond(M) exact-error

with cond(M) the 2-norm condition number of the whole window's M, error
the relative error against the float reference and exact-error against
the exact product, then the number of products, of those off against the
exact product and checked against it, and of the lines above,

    products: N, off by more than 1e-09 relative: E against the exact product of C checked exactly (cond(M) > 1e+06 or off against the float check); listed: L

``--cell`` keeps only the cells whose label contains one of the given
substrings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests"),
                str(ROOT / "benchmarks")]

import digests  # noqa: E402
import workloads  # noqa: E402
from oracles import (  # noqa: E402
    compact_apply_exact,
    compact_apply_reference,
    compact_windows,
)

RTOL = 1e-9
COND_SCREEN = 1e6  # every product of a window with cond(M) above this is checked exactly


def relative_error(actual, ref) -> float:
    return float(np.linalg.norm(actual - ref) / np.linalg.norm(ref))


def check_cell(cell) -> tuple[int, list[tuple[float, float, float]]]:
    """(products, [(error, cond(M), exact error) of each product checked
    exactly]) of one cell, solved by ``digests.run_cell``."""
    admitted = []
    checked = []
    count = 0
    cond = 1.0  # of the current window's M; B = I before the first pair

    def record(model):
        update, apply = model.update, model.apply

        def update_recorded(s, y):
            nonlocal cond
            accepted = update(s, y)
            if accepted:
                admitted.append((np.array(s, dtype=float), np.array(y, dtype=float)))
                _, M, _ = next(compact_windows(cell.hessian, admitted[-model.memory:], 1.0))
                cond = np.linalg.cond(M)
            return accepted

        def apply_checked(v):
            nonlocal count
            out = apply(v)
            window = admitted[-model.memory:]
            v = np.asarray(v, dtype=float)
            ref = compact_apply_reference(cell.hessian, window, 1.0, v)
            count += 1
            error = relative_error(out, ref)
            if error > RTOL or cond > COND_SCREEN:
                exact = np.array(compact_apply_exact(cell.hessian, window, v))
                checked.append((error, cond, relative_error(out, exact)))
            return out

        model.update, model.apply = update_recorded, apply_checked

    digests.run_cell(cell, record)
    return count, checked


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (start points)")
    ap.add_argument("--cell", action="append", default=[],
                    help="keep cells whose label contains this (repeatable)")
    args = ap.parse_args(argv)
    cells = [cell for cell in workloads.matrix_qn(args.seed).cells
             if not args.cell or any(pat in cell.label for pat in args.cell)]
    if not cells:
        ap.error("no cell matches --cell")
    products = checked = exact_off = listed = 0
    for cell in cells:
        count, errors = check_cell(cell)
        products += count
        checked += len(errors)
        for error, cond, exact_error in errors:
            exact_off += exact_error > RTOL
            if error > RTOL or exact_error > RTOL:
                listed += 1
                print(f"off {cell.label} {error:.3g} {cond:.3g} {exact_error:.3g}", flush=True)
    print(f"products: {products}, off by more than {RTOL:g} relative: {exact_off} against "
          f"the exact product of {checked} checked exactly (cond(M) > {COND_SCREEN:g} or "
          f"off against the float check); listed: {listed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cost of each LAPACK and BLAS call of trfam: numpy's public form against
the call trfam makes in its place.

    python3 benchmarks/kernels.py

Run from the repository root; trfam is imported from ``src/``. For each
window shape a matrix-qn cell builds (n in {4, 10, 30, 100}, widths 5 and
10: memory 5 for L-SR1 and L-BFGS), it draws a random W (n x width) and a
random symmetric M, and times the LAPACK calls one factorization makes,
numpy.linalg's public wrapper against ``trfam.hessians``' kernel, and then
the whole window build, (K, |B|) from the three public calls against the
build trfam makes once per admitted pair, under one errstate that ignores
every flag:

    qr        np.linalg.qr(W, mode="r")           _qr_r(W)           n > width only
    solve     np.linalg.solve(M, [W^T | R^T])     _solve             [W^T] when n <= width
    eigvalsh  np.linalg.eigvalsh(R M^-1 R^T)      _eigvalsh
    factors   the three calls above               _compact()         of an L-SR1 (width 5) or
                                                                     L-BFGS (width 10) model
    shed      the same, LinAlgError caught        _compact()         of that window with a zero
                                                                     first row and column of M

A ``shed`` row times a window whose full M is singular: np.linalg raises
and trfam's solve is all NaN, so both routes fail once and then factor
the run without the oldest pair. Then come ``eigvalsh`` of a symmetric
n x n matrix, the exact model's norm, and the BLAS calls, each product
``a @ b`` against the ``a.dot(b)`` trfam forms in its place, with
operands laid out as trfam lays them out; these are the layer cost of the
``B v`` products and the CG's inner products:

    sW        s @ W                               a new pair's row of M
    RMR       R @ KR[:, n:], or W @ K             the norm's small matrix
    Kv        K @ v, K C-contiguous               the first half of a compact product
    Wu        W @ u                               its second half, u = K v
    vv        v @ u                               n only: the CG's and the boundary's dots
    Hv        H @ v                               n only: an exact model's product
    JTr, JTJ  (2 * J.T) @ r, (2 * J.T) @ J        n only: a least-squares g and h

Last, the exact model's input: ``eval_hess(x0)`` of each built-in problem
with a Hessian, one ``hess`` row per problem, against the element loop
that its whole-array form replaced (``tests/oracles.py``) where there is
one.

BLAS and LAPACK run on one thread, as in ``perfbench/run.py``, unless
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is
set: a threaded call reads high on a busy host. Each kernel's output (K
and |B| of a factors or shed row) is asserted bitwise equal to its
reference's before it is timed. Prints the
Python and numpy versions and the effective ``OPENBLAS_NUM_THREADS``, then
one line per call and shape,

    call n width numpy_us trfam_us

with the best of ``--repeat`` timings of ``--number`` calls each, in
microseconds per call; width is ``-`` for the calls that have none, and
the problem's name on a ``hess`` row, whose numpy_us column times the
loop form, or reads ``-`` where no loop form was replaced.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import timeit
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # before numpy loads its BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import HESSIAN_LOOPS  # noqa: E402
from trfam import builtin_collection  # noqa: E402
from trfam.hessians import LbfgsModel, Lsr1Model, _eigvalsh, _qr_r, _solve  # noqa: E402

DIMS = (4, 10, 30, 100)
WIDTHS = (5, 10)


def calls(rng, n: int, width: int):
    """(name, n, width, numpy call, trfam call) of one window's factorization."""
    W = rng.standard_normal((n, width))
    M = rng.standard_normal((width, width))
    M = M + M.T
    out = []
    if n > width:
        R = np.linalg.qr(W, mode="r")
        out.append(("qr", lambda: np.linalg.qr(W, mode="r"), lambda: _qr_r(W)))
        rhs = np.concatenate((W.T, R.T), axis=1)
    else:
        R, rhs = W, W.T
    out.append(("solve", lambda: np.linalg.solve(M, rhs), lambda: _solve(M, rhs)))
    RMR = R @ np.linalg.solve(M, R.T)
    out.append(("eigvalsh", lambda: np.linalg.eigvalsh(RMR), lambda: _eigvalsh(RMR)))
    model = pair_model(n, width)
    model._W, model._M = W, M
    # a zero first row and column make the full M singular but leave the
    # run without its oldest pair nonsingular: one failed build, then one
    shed = pair_model(n, width)
    shed._W, shed._M = W, M.copy()
    shed._M[0] = shed._M[:, 0] = 0.0
    assert shed._compact()[0].shape[1] == width - shed._width
    out.append(("factors", lambda: numpy_compact(model), lambda: model._compact()[1:]))
    out.append(("shed", lambda: numpy_compact(shed), lambda: shed._compact()[1:]))
    return [(name, n, width, ref, fast) for name, ref, fast in out]


def pair_model(n: int, width: int):
    """An empty L-SR1 (width 5) or L-BFGS (width 10) model of memory 5."""
    return (Lsr1Model if width == 5 else LbfgsModel)(n, memory=5)


def numpy_compact(model) -> tuple:
    """(K, |B|) of ``model._compact()`` from the three public np.linalg
    calls: of the longest trailing run of whole pairs that np.linalg
    factors without a LinAlgError."""
    for start in range(0, model._W.shape[1], model._width):
        W, M = model._W[:, start:], model._M[start:, start:]
        n, width = W.shape
        try:
            if n > width:
                R = np.linalg.qr(W, mode="r")
                KR = np.linalg.solve(M, np.concatenate((W.T, R.T), axis=1))
                K, RMR = np.ascontiguousarray(KR[:, :n]), R @ KR[:, n:]
            else:
                K = np.linalg.solve(M, W.T)
                RMR = W @ K
            lam = np.linalg.eigvalsh(RMR)
        except np.linalg.LinAlgError:
            continue
        norm = max(abs(model._combine(1.0, float(lam[0]))),
                   abs(model._combine(1.0, float(lam[-1]))))
        return K, max(norm, 1.0) if n > width else norm
    return ()


def exact_norm(rng, n: int):
    """eigvalsh of a symmetric n x n matrix, as ``ExactHessian`` takes it."""
    H = rng.standard_normal((n, n))
    H = H + H.T
    return ("eigvalsh", n, n, lambda: np.linalg.eigvalsh(H), lambda: _eigvalsh(H))


def window_products(rng, n: int, width: int):
    """(name, n, width, a @ b, a.dot(b)) of each product of one window."""
    W = rng.standard_normal((n, width))
    M = rng.standard_normal((width, width))
    M = M + M.T
    s, u = rng.standard_normal(n), rng.standard_normal(width)
    if n > width:
        R = _qr_r(W)
        KR = _solve(M, np.concatenate((W.T, R.T), axis=1))
        K, RMR = np.ascontiguousarray(KR[:, :n]), (R, KR[:, n:])
    else:
        K = _solve(M, W.T)
        RMR = (W, K)
    pairs = [("sW", s, W), ("RMR", *RMR), ("Kv", K, s), ("Wu", W, u)]
    return [(name, n, width, lambda a=a, b=b: a @ b, lambda a=a, b=b: a.dot(b))
            for name, a, b in pairs]


def vector_products(rng, n: int):
    """(name, n, "-", a @ b, a.dot(b)) of each product of dimension n alone."""
    v, u = rng.standard_normal(n), rng.standard_normal(n)
    H = rng.standard_normal((n, n))
    H = H + H.T
    J = rng.standard_normal((n, n))
    JT2 = 2 * J.T  # F-ordered
    pairs = [("vv", v, u), ("Hv", H, v), ("JTr", JT2, v), ("JTJ", JT2, J)]
    return [(name, n, "-", lambda a=a, b=b: a @ b, lambda a=a, b=b: a.dot(b))
            for name, a, b in pairs]


def hessians():
    """("hess", n, name, loop form or None, eval_hess) at x0 of each built-in
    problem with a Hessian."""
    out = []
    for p in builtin_collection():
        if p.eval_hess is None:
            continue
        loop = HESSIAN_LOOPS.get(p.name)
        ref = None if loop is None else (lambda p=p, loop=loop: loop(p.x0))
        out.append(("hess", p.dim, p.name, ref, lambda p=p: p.eval_hess(p.x0)))
    return out


def bits(out) -> list:
    """(shape, bytes) of each part of a result: an array, or a tuple of
    arrays and floats."""
    return [(np.shape(part), np.asarray(part).tobytes())
            for part in (out if isinstance(out, tuple) else (out,))]


def per_call_us(fn, number: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="seed of the random matrices")
    ap.add_argument("--number", type=int, default=2000, help="calls per timing")
    ap.add_argument("--repeat", type=int, default=5, help="timings per call; the best is kept")
    args = ap.parse_args(argv)
    if args.number < 1 or args.repeat < 1:
        ap.error("--number and --repeat must be positive")
    rng = np.random.default_rng(args.seed)
    cases = [case for n in DIMS for width in WIDTHS for case in calls(rng, n, width)]
    cases += [exact_norm(rng, n) for n in DIMS]
    cases += [case for n in DIMS for width in WIDTHS for case in window_products(rng, n, width)]
    cases += [case for n in DIMS for case in vector_products(rng, n)]
    cases += hessians()
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}; "
          f"best of {args.repeat} x {args.number} calls")
    print("call n width numpy_us trfam_us")
    for name, n, width, ref, fast in cases:
        ref_us = "-"
        if ref is not None:
            if bits(ref()) != bits(fast()):
                raise AssertionError(f"{name} at n={n}, width={width}: outputs differ")
            ref_us = f"{per_call_us(ref, args.number, args.repeat):.2f}"
        print(f"{name} {n} {width} {ref_us} {per_call_us(fast, args.number, args.repeat):.2f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

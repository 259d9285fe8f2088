"""Model Hessians: exact, limited-memory BFGS/SR1, scripted, and zero.

Every model is a symmetric linear operator exposing ``apply`` (B v
products), ``update`` (pair ingestion with the usual safeguards),
``operator_norm`` and, in one dimension, ``curvature_1d`` (B as a float).
The limited-memory models start from B0 = I.
Limited-memory products use the direct compact representation (Byrd,
Nocedal and Schnabel 1994), not the inverse form, because both the
subproblem and the agreement ratio consume B v. W and M of
B = I -/+ W M^{-1} W^T are kept and bordered once per admitted pair
(Byrd, Nocedal and Schnabel 1994, section 4), and from them two factors
are built once: K = M^{-1} W^T, so a product v -/+ W (K v) is two thin
matvecs, and |B|. The norm needs only eigenvalues: with R the triangular
factor of W = QR (Q orthonormal, never formed; R = W when W has no more
rows than columns), the nonzero spectrum of W M^{-1} W^T is that of the
small matrix R M^{-1} R^T, at most 2 * memory square (Erway and Marcia
2015; Brust, Erway and Marcia 2017), and ``operator_norm`` reads the exact
|B| off its end eigenvalues. One solve with M gives both K and M^{-1} R^T.
L-BFGS and L-SR1 alike factor the longest trailing run of whole pairs
whose |B| is finite, and store K C-contiguous, so no product copies it.

This module is the only one that factorizes, and it calls numpy's LAPACK
gufuncs (``numpy.linalg._umath_linalg``) through ``_qr_r``, ``_solve`` and
``_eigvalsh``: the same calls and results as ``np.linalg.qr(mode="r")``,
``np.linalg.solve`` and ``np.linalg.eigvalsh(UPLO="L")``, bit for bit,
without their per-call coercion, which is most of a small factorization's
cost. A failed gufunc fills its output with NaN, so a failure is read off
the value: a window's factors are used only when the first entry of K and
both end eigenvalues of R M^{-1} R^T are finite, which a singular M, a
failed eigvalsh and a solve that overflows all break, and an exact norm
whose end eigenvalues are not finite raises ``SolveError``. The factors
of a window are built, and an exact norm taken, under one errstate that
ignores every flag (``_quiet``), so nothing warns. K is not scanned past
its first entry: when n > width, a K that overflows elsewhere while |B|
stays finite is kept. Every input is a float64 array of the right shape
by construction; ``ExactHessian`` checks the shape of each Hessian it is
given before its norm is taken.
``tests/test_hessians.py::TestKernels`` holds the kernels to numpy's
results, and to all-NaN outputs where numpy raises, so a numpy release
that changes the private module fails there.

Every product is ``ndarray.dot``, not ``@``: both end in the same BLAS
call, but ``@`` dispatches through the matmul gufunc, which costs about as
much again as the call itself on these small operands. ``TestKernels``
holds the two bitwise equal at every operand layout trfam forms.
"""

from __future__ import annotations

import operator
from array import array
from functools import cache
from math import isfinite

import numpy as np
from numpy.linalg import _umath_linalg

from .subproblem import SolveError, _norm

# Pair-acceptance safeguards; standard choices.
BFGS_CURVATURE_TOL = 1e-8
SR1_DENOM_TOL = 1e-8

DEFAULT_MEMORY = 5  # pairs a limited-memory model keeps unless told otherwise
MODEL_KINDS = ("exact", "lbfgs", "lsr1", "zero")  # what build_model builds

_E1 = np.ones(1)  # the unit vector of the base curvature_1d; read-only
_E1.flags.writeable = False


# Every flag ignored, entered once per window build and once per exact
# norm as a decorator: a failure shows in the values those read, so no flag
# needs to warn or raise.
_quiet = np.errstate(all="ignore")


@cache
def _lower(width: int) -> np.ndarray:
    """The read-only mask of a square strict lower triangle."""
    mask = np.tri(width, width, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _qr_r(W: np.ndarray) -> np.ndarray:
    """R of W = QR for an n x width W with n > width, forming no Q:
    ``np.linalg.qr(W, mode="r")``."""
    a = W.copy()  # the gufunc overwrites its input with R and reflectors
    _umath_linalg.qr_r_raw(a, signature="d->d")
    width = a.shape[1]
    R = a[:width]
    R[_lower(width)] = 0.0  # the reflectors
    return R


def _solve(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """M^{-1} B for a 2-d B: ``np.linalg.solve(M, B)``; all NaN when M is
    singular."""
    return _umath_linalg.solve(M, B, signature="dd->d")


def _eigvalsh(A: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of symmetric A from its lower triangle:
    ``np.linalg.eigvalsh(A, UPLO="L")``; all NaN when they do not converge."""
    return _umath_linalg.eigvalsh_lo(A, signature="d->d")


def _check_memory(memory: int) -> None:
    """A limited-memory window holds at least one pair."""
    if memory < 1:
        raise ValueError("memory must be positive")


def _doubles(v) -> array:
    """An array('d') copy of a float vector, filled in one block."""
    out = array("d")
    out.frombytes(memoryview(np.ascontiguousarray(v, dtype=float)).cast("B"))
    return out


class HessianModel:
    """Base class; concrete models override ``_apply`` (``ExactHessian``
    overrides ``apply`` itself) and ``operator_norm``, and models whose B
    changes override ``update``, the one place B may change.

    A model instance is mutable and owned by a single solver run; distinct
    runs must not share one.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape}, model dim {self.dim}")
        return self._apply(v)

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Ingest the step s and gradient change y; True when B changed.

        Models whose B never changes keep this default, which reads neither.
        """
        return False

    def operator_norm(self) -> float:
        """|B|, the spectral norm."""
        raise NotImplementedError

    def curvature_1d(self) -> float:
        """B of a 1-d model as a float; ``apply`` rejects any other dim."""
        return float(self.apply(_E1)[0])

    def _apply(self, v):
        raise NotImplementedError


class ZeroModel(HessianModel):
    def _apply(self, v):
        return np.zeros_like(v)

    def operator_norm(self):
        return 0.0


class ScriptedModel(HessianModel):
    """One-dimensional model that reads B off a script: values[j] after j
    updates, whatever their s and y. A worst-case run accepts every step,
    so B_k = values[k].

    Updates beyond the script hold the last value; the worst-case verifier
    detects any overrun through its own iteration-count check.
    ``curvature_1d`` returns ``scalar``, which equals ``scalar * 1.0`` bitwise.
    """

    def __init__(self, values):
        super().__init__(1)
        self.values = _doubles(values)  # 8 B per value; indexing gives a float
        if not self.values:
            raise ValueError("empty script")
        self._script = iter(self.values)
        self.scalar = next(self._script)

    def update(self, s, y):
        """Move to the next value of the script; s and y are not read."""
        self.scalar = next(self._script, self.scalar)
        return True

    def _apply(self, v):
        return self.scalar * v

    def operator_norm(self):
        return abs(self.scalar)

    def curvature_1d(self):
        return self.scalar


class ExactHessian(HessianModel):
    """Dense Hessian of the objective at the current iterate, evaluated
    when first read: a Hessian that nothing reads is never formed."""

    def __init__(self, eval_hess, x0):
        x0 = np.asarray(x0, dtype=float)
        super().__init__(len(x0))
        self._eval_hess = eval_hess
        self._x = x0.copy()
        self._mat: np.ndarray | None = None  # the Hessian at _x, evaluated on first use
        self._norm: float | None = None  # of _mat, computed on first use

    def apply(self, v):
        # the base apply and its _apply in one frame, one per product
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape}, model dim {self.dim}")
        mat = self._mat
        if mat is None:
            mat = self._mat = np.asarray(self._eval_hess(self._x), dtype=float)
        return mat.dot(v)

    def update(self, s, y):
        self._x = self._x + np.asarray(s, dtype=float)
        self._mat = self._norm = None
        return True

    def operator_norm(self):
        """|B|; a Hessian that is not n x n, has a non-finite entry or has
        an end eigenvalue that is not finite (eigvalsh failed or overflowed)
        raises SolveError."""
        if self._norm is None:
            mat = self._mat
            if mat is None:
                mat = self._mat = np.asarray(self._eval_hess(self._x), dtype=float)
            if mat.shape != (self.dim, self.dim):
                raise SolveError(f"the exact Hessian has shape {mat.shape}, "
                                 f"not ({self.dim}, {self.dim})")
            if not np.isfinite(mat).all():
                raise SolveError("the exact Hessian has a non-finite entry")
            self._norm = _spectral_norm(mat)
        return self._norm


@_quiet
def _spectral_norm(A: np.ndarray) -> float:
    """max |lambda| of symmetric A. eigvalsh's output is ascending, so it is
    at one of its ends; both abs keep a zero matrix's norm +0.0, not -0.0."""
    lam = _eigvalsh(A)
    lo, hi = lam.item(0), lam.item(-1)
    if not (isfinite(lo) and isfinite(hi)):
        raise SolveError("the exact Hessian's eigenvalues are not finite")
    return max(abs(lo), abs(hi))


class _PairModel(HessianModel):
    """Shared storage for limited-memory models: the compact factors W and
    M of B = I -/+ W M^{-1} W^T over a window of (s, y) pairs, oldest first.

    A pair that ``_admits`` passes borders both once: its ``_width`` columns
    go on the end of W, and one product s^T W gives its rows of M; eviction
    drops the leading columns and block. K = M^{-1} W^T and |B| are built
    from W and M on first use after an admitted pair, and reused until the
    next one. The factors shed the oldest pairs of a window whose |B| is
    not finite (``_compact``); W and M keep every admitted pair."""

    _combine = operator.sub  # the sign of the compact term: sub for BFGS, add for SR1
    _width: int  # columns of W per pair

    def __init__(self, dim, memory=DEFAULT_MEMORY):
        super().__init__(dim)
        _check_memory(memory)
        self.memory = memory
        self._W = np.empty((dim, 0))
        self._M = np.empty((0, 0))
        self._factors: tuple | None = None

    def update(self, s, y):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        snorm = _norm(s)
        if snorm == 0.0:
            raise ValueError("update with zero step")
        if not self._admits(s, y, snorm):
            return False
        # evict the oldest pair from a full window
        drop = self._width if self._W.shape[1] == self._width * self.memory else 0
        k = self._M.shape[0] - drop  # the kept pairs' columns and rows; s's row is next
        W = np.empty((self.dim, k + self._width))
        W[:, :k] = self._W[:, drop:]
        self._border(W, k, s, y)
        row = s.dot(W)
        M = np.zeros((W.shape[1], W.shape[1]))
        M[:k, :k] = self._M[drop:, drop:]
        M[k, :k + 1] = M[:k + 1, k] = row[:k + 1]
        # an L-BFGS pair's y row is -D's new entry, -s'y; L-SR1 has no y row
        M[k + 1:, k + 1:] = -row[k + 1:]
        self._W, self._M = W, M
        self._factors = None
        return True

    @_quiet
    def _compact(self) -> tuple:
        """Build and keep (W, K, |B|) of the longest trailing run of whole
        pairs whose |B| is finite, a trailing block of the stored W and M;
        empty when B = I, with no pairs or no such run. Products and norms
        build them only when none are kept."""
        W, M = self._W, self._M
        self._factors = ()
        for start in range(0, W.shape[1], self._width):
            run = W[:, start:]
            factors = self._product_factors(run, M[start:, start:])
            if factors is not None:
                self._factors = (run, *factors)
                break
        return self._factors

    def _product_factors(self, W, M) -> tuple | None:
        """(K = M^{-1} W^T, |B|) of B = I -/+ W M^{-1} W^T, K C-contiguous;
        None when K's first entry or an end eigenvalue of R M^{-1} R^T is not
        finite: M is singular (the solve is all NaN), eigvalsh failed (all
        NaN) or the solve or its product overflowed."""
        n, width = W.shape
        if n > width:
            # R of W = QR, with Q orthonormal even when W is rank-deficient;
            # for n <= width the identity already is such a Q, with R = W
            R = _qr_r(W)
            rhs = np.empty((width, n + width))
            rhs[:, :n] = W.T
            rhs[:, n:] = R.T
            KR = _solve(M, rhs)
            # one copy of K here, where ndarray.dot would copy the strided
            # slice on every product
            K, RMR = np.ascontiguousarray(KR[:, :n]), R.dot(KR[:, n:])
        else:
            K = _solve(M, W.T)
            RMR = W.dot(K)
        if not isfinite(K.item(0)):
            # a failed solve is all NaN; eigvalsh of its NaN RMR would
            # iterate to its limit before it failed too
            return None
        lam = _eigvalsh(RMR)
        lo, hi = lam.item(0), lam.item(-1)
        if not (isfinite(lo) and isfinite(hi)):
            return None
        # |1 -/+ lambda| is largest at an end of the ascending spectrum
        combine = self._combine
        norm = max(abs(combine(1.0, lo)), abs(combine(1.0, hi)))
        if n > width:
            norm = max(norm, 1.0)  # B = I on the complement of range(W)
        return K, norm

    def _apply(self, v):
        factors = self._factors
        if factors is None:
            factors = self._compact()
        if not factors:
            return v.copy()
        W, K, _ = factors
        return self._combine(v, W.dot(K.dot(v)))

    def operator_norm(self):
        factors = self._factors
        if factors is None:
            factors = self._compact()
        return factors[2] if factors else 1.0


class LbfgsModel(_PairModel):
    """Limited-memory BFGS in the compact form
    B = I - [S, Y] M^{-1} [S, Y]^T,
    M = [[S^T S, L], [L^T, -D]],
    with L the strict lower triangle of S^T Y and D its diagonal.

    W interleaves S and Y as [s_1, y_1, s_2, ...], and M's rows and columns
    follow, which leaves B unchanged. A new pair's s row of M is s^T W with
    a zero against its own y; its y row is zero but for -s^T y on the diagonal.
    """

    _width = 2

    def _border(self, W, k, s, y):
        W[:, k] = s
        W[:, k + 1] = y

    def _admits(self, s, y, snorm):
        # curvature safeguard: s'y >= tol * |s| * |y|, and strictly positive;
        # written as a negated rejection test, which admits a NaN s'y
        sy = float(s.dot(y))
        return not (sy <= 0.0 or sy < BFGS_CURVATURE_TOL * snorm * _norm(y))


class Lsr1Model(_PairModel):
    """Limited-memory SR1 in the compact form
    B = I + (Y - S) M^{-1} (Y - S)^T,
    M = D + L + L^T - S^T S.

    W = Y - S and M_ij = s_i^T (y_j - s_j), so a new pair's row of M is
    s^T W.
    """

    _combine = operator.add
    _width = 1

    def _border(self, W, k, s, y):
        np.subtract(y, s, out=W[:, k])

    def _admits(self, s, y, snorm):
        z = y - self.apply(s)
        nz = _norm(z)
        # both-zero case counts as rejected: the update is a no-op anyway
        return not (nz == 0.0 or abs(float(s.dot(z))) < SR1_DENOM_TOL * snorm * nz)


def build_model(mode: str, problem, memory: int = DEFAULT_MEMORY) -> HessianModel:
    """Construct the model named by ``mode`` for ``problem``; build a model of
    a bare dimension from its class (``LbfgsModel(n)`` and so on)."""
    _check_memory(memory)
    dim = problem.dim
    if mode == "zero":
        return ZeroModel(dim)
    if mode == "lbfgs":
        return LbfgsModel(dim, memory)
    if mode == "lsr1":
        return Lsr1Model(dim, memory)
    if mode == "exact":
        if problem.eval_hess is None:
            raise ValueError("exact mode needs a problem with eval_hess")
        return ExactHessian(problem.eval_hess, problem.x0)
    raise ValueError(f"unknown hessian mode {mode!r}")


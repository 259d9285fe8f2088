"""Model Hessians: exact, limited-memory BFGS/SR1, scripted, and zero.

Every model is a symmetric linear operator exposing ``apply`` (B v
products), ``update`` (pair ingestion with the usual safeguards) and
``operator_norm``. The limited-memory models start from B0 = I.
Limited-memory products use the direct compact representation (Byrd,
Nocedal and Schnabel 1994), not the inverse form, because both the
subproblem and the agreement ratio consume B v. Its factors are built once
per accepted pair, and ``operator_norm`` reads the exact spectrum from
them: a thin QR of the n x k factor W reduces B = I -/+ W M^{-1} W^T to a
k x k eigenproblem (Erway and Marcia 2015), k <= 2 * memory.
"""

from __future__ import annotations

import functools
from array import array

import numpy as np

from .subproblem import _norm

# Pair-acceptance safeguards; standard choices.
BFGS_CURVATURE_TOL = 1e-8
SR1_DENOM_TOL = 1e-8

DEFAULT_MEMORY = 5  # pairs a limited-memory model keeps unless told otherwise
MODEL_KINDS = ("exact", "lbfgs", "lsr1", "zero")  # what build_model builds


def _doubles(v) -> array:
    """An array('d') copy of a float vector, filled in one block."""
    out = array("d")
    out.frombytes(memoryview(np.ascontiguousarray(v, dtype=float)).cast("B"))
    return out


class HessianModel:
    """Base class; concrete models override the private hooks, and models
    that learn from steps override ``update``.

    A model instance is mutable and owned by a single solver run; distinct
    runs must not share one.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._norm_cache: float | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape}, model dim {self.dim}")
        return self._apply(v)

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Ingest the step s and gradient change y; True when B changed.

        Models that never learn keep this default, which reads neither.
        """
        return False

    def operator_norm(self) -> float:
        if self._norm_cache is None:
            self._norm_cache = self._compute_norm()
        return self._norm_cache

    def begin_iteration(self, k: int) -> None:
        """Hook called by the driver at the top of iteration k."""

    # hooks -----------------------------------------------------------------

    def _apply(self, v):
        raise NotImplementedError

    def _compute_norm(self) -> float:
        raise NotImplementedError


class ZeroModel(HessianModel):
    def _apply(self, v):
        return np.zeros_like(v)

    def _compute_norm(self):
        return 0.0


class ScriptedModel(HessianModel):
    """One-dimensional model B_k = values[k], indexed by the iteration
    counter; it never learns from steps.

    Iterations beyond the script hold the last value; the worst-case
    verifier detects any overrun through its own iteration-count check.
    """

    def __init__(self, values):
        super().__init__(1)
        self.values = _doubles(values)  # 8 B per value; indexing gives a float
        if not self.values:
            raise ValueError("empty script")
        self.begin_iteration(0)

    def begin_iteration(self, k: int) -> None:
        self.scalar = self.values[min(k, len(self.values) - 1)]
        self._norm_cache = abs(self.scalar)

    def _apply(self, v):
        return self.scalar * v


class ExactHessian(HessianModel):
    """Dense Hessian of the objective, re-evaluated as the iterate moves."""

    def __init__(self, eval_hess, x0):
        x0 = np.asarray(x0, dtype=float)
        super().__init__(len(x0))
        self._eval_hess = eval_hess
        self._x = x0.copy()
        self._mat = np.asarray(eval_hess(self._x), dtype=float)

    def _apply(self, v):
        return self._mat @ v

    def update(self, s, y):
        self._x = self._x + np.asarray(s, dtype=float)
        self._mat = np.asarray(self._eval_hess(self._x), dtype=float)
        self._norm_cache = None
        return True

    def _compute_norm(self):
        return float(np.max(np.abs(np.linalg.eigvalsh(self._mat))))


class _PairModel(HessianModel):
    """Shared storage for limited-memory models: a window of (s, y) pairs.

    The window is kept as C-contiguous n x k arrays S and Y, oldest pair
    first, and B = I -/+ W M^{-1} W^T. The factors W, M and K = M^{-1} W^T
    are built on first use after an accepted pair and reused until the
    next one. A pair enters the window when ``_admits`` passes it.
    """

    _combine: np.ufunc  # np.subtract for BFGS, np.add for SR1

    def __init__(self, dim, memory=DEFAULT_MEMORY):
        super().__init__(dim)
        if memory < 1:
            raise ValueError("memory must be positive")
        self.memory = memory
        self._S = self._Y = np.empty((dim, 0))
        self._factors: tuple | None = None

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The window's (s, y) pairs, oldest first, as views of S and Y."""
        return list(zip(self._S.T, self._Y.T))

    def update(self, s, y):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if _norm(s) == 0.0:
            raise ValueError("update with zero step")
        if not self._admits(s, y):
            return False
        drop = int(self._S.shape[1] == self.memory)  # evict the oldest pair
        self._S = np.concatenate((self._S[:, drop:], s[:, None]), axis=1)
        self._Y = np.concatenate((self._Y[:, drop:], y[:, None]), axis=1)
        self._factors = None
        self._norm_cache = None
        return True

    def _compact(self) -> tuple:
        """(W, M, K) from the subclass's ``_factorize``; empty when B = I."""
        if self._factors is None:
            self._factors = self._factorize() if self._S.shape[1] else ()
        return self._factors

    def _apply(self, v):
        factors = self._compact()
        if not factors:
            return v.copy()
        W, M, _ = factors
        # solve per product, not K @ v: this keeps every product's rounding,
        # and with it every beta = 0 trajectory, as it was
        return self._combine(v, W @ np.linalg.solve(M, W.T @ v))

    def _compute_norm(self):
        factors = self._compact()
        if not factors:
            return 1.0
        W, _, K = factors
        # W = QR with Q orthonormal even when W is rank-deficient, so
        # B = I -/+ Q (R M^{-1} R^T) Q^T, and R M^{-1} R^T = R K Q
        Q, R = np.linalg.qr(W)
        C = R @ K @ Q
        eigs = self._combine(1.0, np.linalg.eigvalsh(0.5 * (C + C.T)))
        norm = float(np.max(np.abs(eigs)))
        if self.dim > Q.shape[1]:
            norm = max(norm, 1.0)  # B = I on the complement of range(Q)
        return norm


@functools.cache
def _strict_lower(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict lower triangle of a k x k matrix."""
    return np.tril_indices(k, -1)


class LbfgsModel(_PairModel):
    """Limited-memory BFGS in the compact form
    B = I - [S, Y] M^{-1} [S, Y]^T,
    M = [[S^T S, L], [L^T, -D]],
    with L the strict lower triangle of S^T Y and D its diagonal.
    """

    _combine = np.subtract

    def _factorize(self):
        S, Y = self._S, self._Y
        k = S.shape[1]
        SY = S.T @ Y
        rows, cols = _strict_lower(k)
        M = np.zeros((2 * k, 2 * k))
        M[:k, :k] = S.T @ S
        M[rows, cols + k] = M[cols + k, rows] = SY[rows, cols]  # L and L^T
        M[k:, k:] = -0.0  # -D, whose off-diagonal zeros are -0.0
        np.fill_diagonal(M[k:, k:], -SY.diagonal())
        W = np.concatenate((S, Y), axis=1)
        return W, M, np.linalg.solve(M, W.T)

    def _admits(self, s, y):
        # curvature safeguard: s'y >= tol * |s| * |y|, and strictly positive;
        # written as a negated rejection test, which admits a NaN s'y
        sy = float(s @ y)
        return not (sy <= 0.0 or sy < BFGS_CURVATURE_TOL * _norm(s) * _norm(y))


class Lsr1Model(_PairModel):
    """Limited-memory SR1 in the compact form
    B = I + (Y - S) M^{-1} (Y - S)^T,
    M = D + L + L^T - S^T S.

    The factors use the longest suffix of the window whose M is nonsingular
    to ``np.linalg.solve``; ``pairs`` itself keeps every accepted pair.
    """

    _combine = np.add

    def _factorize(self):
        for start in range(self._S.shape[1]):
            S, Y = self._S[:, start:], self._Y[:, start:]
            SY = S.T @ Y
            rows, cols = _strict_lower(S.shape[1])
            SY[cols, rows] = SY[rows, cols]  # D + L + L^T
            M = SY - S.T @ S
            Psi = Y - S
            try:
                return Psi, M, np.linalg.solve(M, Psi.T)
            except np.linalg.LinAlgError:
                continue  # window made M singular; shed its oldest pair
        return ()

    def _admits(self, s, y):
        z = y - self.apply(s)
        nz = _norm(z)
        # both-zero case counts as rejected: the update is a no-op anyway
        return not (nz == 0.0 or abs(float(s @ z)) < SR1_DENOM_TOL * _norm(s) * nz)


def build_model(
    mode: str,
    problem=None,
    memory: int = DEFAULT_MEMORY,
    dim: int | None = None,
) -> HessianModel:
    """Construct the model named by ``mode`` for a problem (or raw dim)."""
    if dim is None:
        if problem is None:
            raise ValueError("need a problem or an explicit dim")
        dim = problem.dim
    if mode == "zero":
        return ZeroModel(dim)
    if mode == "lbfgs":
        return LbfgsModel(dim, memory)
    if mode == "lsr1":
        return Lsr1Model(dim, memory)
    if mode == "exact":
        if problem is None or problem.eval_hess is None:
            raise ValueError("exact mode needs a problem with eval_hess")
        return ExactHessian(problem.eval_hess, problem.x0)
    raise ValueError(f"unknown hessian mode {mode!r}")


def measure_envelope(log, p: float, counter_kind: str = "successful") -> float:
    """Smallest mu with max_{j<=k} |B_j| <= mu (1 + c_k^p) over a run log.

    ``log`` is an ``IterationLog``; the counter c_k is its ``n_succ``
    column (|S_k|) or the index k, per ``counter_kind``. The powers are
    Python's, whose rounding numpy's vectorised power does not share.
    """
    if counter_kind not in ("successful", "iteration"):
        raise ValueError(f"unknown counter_kind {counter_kind!r}")
    if not len(log):
        raise ValueError("empty iteration log")
    counter = log.n_succ if counter_kind == "successful" else range(len(log))
    envelope = 1.0 + np.array([float(c) ** p for c in counter])
    running_max = np.fmax.accumulate(log.column("bnorm"))
    # fmax skips NaN, as a running max(best, value) from 0.0 does
    return float(np.fmax.reduce(running_max / envelope, initial=0.0))

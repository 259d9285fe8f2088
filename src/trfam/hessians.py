"""Model Hessians: exact, limited-memory BFGS/SR1, scripted, and zero.

Every model is a symmetric linear operator exposing ``apply`` (B v
products), ``update`` (pair ingestion with the usual safeguards) and
``operator_norm``. Limited-memory products use the direct compact
representation (Byrd, Nocedal and Schnabel 1994), not the inverse form,
because both the subproblem and the agreement ratio consume B v. Its
factors are built once per accepted pair, and ``operator_norm`` reads the
exact spectrum from them: a thin QR of the n x k factor W reduces
B = sigma I -/+ W M^{-1} W^T to a k x k eigenproblem (Erway and Marcia
2015), k <= 2 * memory.
"""

from __future__ import annotations

import numpy as np

from .subproblem import _norm

# Pair-acceptance safeguards; standard choices.
BFGS_CURVATURE_TOL = 1e-8
SR1_DENOM_TOL = 1e-8


class HessianModel:
    """Base class; concrete models override the private hooks.

    A model instance is mutable and owned by a single solver run; distinct
    runs must not share one.
    """

    mode = "abstract"

    def __init__(self, dim: int):
        self.dim = dim
        self._norm_cache: float | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape}, model dim {self.dim}")
        return self._apply(v)

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if _norm(s) == 0.0:
            raise ValueError("update with zero step")
        accepted = self._update(s, y)
        if accepted:
            self._norm_cache = None
        return accepted

    def operator_norm(self) -> float:
        if self._norm_cache is None:
            self._norm_cache = self._compute_norm()
        return self._norm_cache

    def begin_iteration(self, k: int) -> None:
        """Hook called by the driver at the top of iteration k."""

    # hooks -----------------------------------------------------------------

    def _apply(self, v):
        raise NotImplementedError

    def _update(self, s, y) -> bool:
        return False

    def _compute_norm(self) -> float:
        raise NotImplementedError


def dense_matrix(model: HessianModel) -> np.ndarray:
    """B as a dense matrix, one product per column; a test oracle."""
    cols = [model.apply(col) for col in np.eye(model.dim)]
    return np.column_stack(cols)


class ZeroModel(HessianModel):
    mode = "zero"

    def _apply(self, v):
        return np.zeros_like(v)

    def _compute_norm(self):
        return 0.0


class ScriptedModel(HessianModel):
    """Scalar multiples of the identity, indexed by the iteration counter.

    Iterations beyond the script hold the last value; the worst-case
    verifier detects any overrun through its own iteration-count check.
    """

    mode = "scripted"

    def __init__(self, values, dim: int = 1):
        super().__init__(dim)
        self.values = np.asarray(values, dtype=float)
        if self.values.size == 0:
            raise ValueError("empty script")
        self._k = 0

    @property
    def scalar(self) -> float:
        return float(self.values[min(self._k, self.values.size - 1)])

    def begin_iteration(self, k: int) -> None:
        self._k = k
        self._norm_cache = None

    def _apply(self, v):
        return self.scalar * v

    def _compute_norm(self):
        return abs(self.scalar)


class ExactHessian(HessianModel):
    """Dense Hessian of the objective, re-evaluated as the iterate moves."""

    mode = "exact"

    def __init__(self, eval_hess, x0):
        x0 = np.asarray(x0, dtype=float)
        super().__init__(len(x0))
        self._eval_hess = eval_hess
        self._x = x0.copy()
        self._mat = np.asarray(eval_hess(self._x), dtype=float)

    def _apply(self, v):
        return self._mat @ v

    def _update(self, s, y):
        self._x = self._x + s
        self._mat = np.asarray(self._eval_hess(self._x), dtype=float)
        return True

    def _compute_norm(self):
        return float(np.max(np.abs(np.linalg.eigvalsh(self._mat))))


class _PairModel(HessianModel):
    """Shared storage for limited-memory models: a window of (s, y) pairs.

    Subclasses write B = sigma I + sign * W M^{-1} W^T. The factors W, M
    and K = M^{-1} W^T are built on first use after an accepted pair and
    reused until the next one.

    ``bb_scaling`` refreshes the base scale to s'y/s's of the newest
    accepted pair; off by default so base-dependent constants stay put.
    """

    _SIGN: float  # -1 for BFGS, +1 for SR1

    def __init__(self, dim, memory=5, b0_scale=1.0, bb_scaling=False):
        super().__init__(dim)
        if memory < 1:
            raise ValueError("memory must be positive")
        if not b0_scale > 0:
            raise ValueError("b0_scale must be positive")
        self.memory = memory
        self.b0_scale = b0_scale
        self.bb_scaling = bb_scaling
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []
        self._factors: tuple | None = None

    def _push(self, s, y):
        if len(self.pairs) == self.memory:
            self.pairs.pop(0)
        self.pairs.append((s.copy(), y.copy()))
        if self.bb_scaling:
            scale = float(s @ y) / float(s @ s)
            if scale > 0:
                self.b0_scale = scale
        self._factors = None

    def _compact(self) -> tuple:
        """(W, M, K) from the subclass's ``_factorize``; empty when B = sigma I."""
        if self._factors is None:
            self._factors = self._factorize() if self.pairs else ()
        return self._factors

    def _apply(self, v):
        factors = self._compact()
        if not factors:
            return self.b0_scale * v
        W, M, _ = factors
        # solve per product, not K @ v: this keeps every product's rounding,
        # and with it every beta = 0 trajectory, as it was
        z = np.linalg.solve(M, W.T @ v)
        return self.b0_scale * v + self._SIGN * (W @ z)

    def _compute_norm(self):
        sig = self.b0_scale
        factors = self._compact()
        if not factors:
            return abs(sig)
        W, _, K = factors
        # W = QR with Q orthonormal even when W is rank-deficient, so
        # B = sigma I + sign * Q (R M^{-1} R^T) Q^T, and R M^{-1} R^T = R K Q
        Q, R = np.linalg.qr(W)
        C = R @ K @ Q
        eigs = sig + self._SIGN * np.linalg.eigvalsh(0.5 * (C + C.T))
        norm = float(np.max(np.abs(eigs)))
        if self.dim > Q.shape[1]:
            norm = max(norm, abs(sig))  # B = sigma I on the complement of range(Q)
        return norm


def _columns(pairs):
    S = np.column_stack([p[0] for p in pairs])
    Y = np.column_stack([p[1] for p in pairs])
    return S, Y


class LbfgsModel(_PairModel):
    """Limited-memory BFGS in the compact form
    B = sigma I - [sigma S, Y] M^{-1} [sigma S, Y]^T,
    M = [[sigma S^T S, L], [L^T, -D]].
    """

    mode = "lbfgs"
    _SIGN = -1.0

    def _factorize(self):
        S, Y = _columns(self.pairs)
        sig = self.b0_scale
        SY = S.T @ Y
        L = np.tril(SY, -1)
        D = np.diag(np.diag(SY))
        M = np.block([[sig * (S.T @ S), L], [L.T, -D]])
        W = np.hstack([sig * S, Y])
        return W, M, np.linalg.solve(M, W.T)

    def _update(self, s, y):
        # curvature safeguard: s'y >= tol * |s| * |y|, and strictly positive
        sy = float(s @ y)
        ns, ny = np.linalg.norm(s), np.linalg.norm(y)
        if sy <= 0.0 or sy < BFGS_CURVATURE_TOL * ns * ny:
            return False
        self._push(s, y)
        return True


class Lsr1Model(_PairModel):
    """Limited-memory SR1 in the compact form
    B = sigma I + (Y - sigma S) M^{-1} (Y - sigma S)^T,
    M = D + L + L^T - sigma S^T S.

    The factors use the longest suffix of ``pairs`` whose M is nonsingular
    to ``np.linalg.solve``; ``pairs`` itself keeps every accepted pair.
    """

    mode = "lsr1"
    _SIGN = 1.0

    def _factorize(self):
        sig = self.b0_scale
        for start in range(len(self.pairs)):
            S, Y = _columns(self.pairs[start:])
            Psi = Y - sig * S
            SY = S.T @ Y
            L = np.tril(SY, -1)
            D = np.diag(np.diag(SY))
            M = D + L + L.T - sig * (S.T @ S)
            try:
                return Psi, M, np.linalg.solve(M, Psi.T)
            except np.linalg.LinAlgError:
                continue  # window made M singular; shed its oldest pair
        return ()

    def _update(self, s, y):
        z = y - self.apply(s)
        nz = np.linalg.norm(z)
        # both-zero case counts as rejected: the update is a no-op anyway
        if nz == 0.0 or abs(float(s @ z)) < SR1_DENOM_TOL * np.linalg.norm(s) * nz:
            return False
        self._push(s, y)
        return True


def build_model(
    mode: str,
    problem=None,
    memory: int = 5,
    b0_scale: float = 1.0,
    script=None,
    dim: int | None = None,
    bb_scaling: bool = False,
) -> HessianModel:
    """Construct the model named by ``mode`` for a problem (or raw dim)."""
    if dim is None:
        if problem is None:
            raise ValueError("need a problem or an explicit dim")
        dim = problem.dim
    if mode == "zero":
        return ZeroModel(dim)
    if mode == "lbfgs":
        return LbfgsModel(dim, memory, b0_scale, bb_scaling)
    if mode == "lsr1":
        return Lsr1Model(dim, memory, b0_scale, bb_scaling)
    if mode == "scripted":
        if script is None:
            raise ValueError("scripted mode needs a script")
        return ScriptedModel(script, dim)
    if mode == "exact":
        if problem is None or problem.eval_hess is None:
            raise ValueError("exact mode needs a problem with eval_hess")
        return ExactHessian(problem.eval_hess, problem.x0)
    raise ValueError(f"unknown hessian mode {mode!r}")


def measure_envelope(log, p: float, counter_kind: str = "successful") -> float:
    """Smallest mu with max_{j<=k} |B_j| <= mu (1 + c_k^p) over a run log.

    ``log`` is a sequence of iteration records carrying ``bnorm`` plus
    ``n_succ``/``k``; the counter c_k is |S_k| or k per ``counter_kind``.
    """
    if counter_kind not in ("successful", "iteration"):
        raise ValueError(f"unknown counter_kind {counter_kind!r}")
    records = list(log)
    if not records:
        raise ValueError("empty iteration log")
    mu_hat = 0.0
    running_max = 0.0
    for rec in records:
        running_max = max(running_max, rec.bnorm)
        c = rec.n_succ if counter_kind == "successful" else rec.k
        mu_hat = max(mu_hat, running_max / (1.0 + float(c) ** p))
    return mu_hat

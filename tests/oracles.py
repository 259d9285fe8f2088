"""Reference implementations the tests check the package against.

None of these is on a solver's code path: ``trfam``'s step solvers meet
the fraction-of-Cauchy-decrease contract by construction, its models are
never materialised as dense matrices, its truncated CG walks a stored
path instead of running the one-shot loop below, and its limited-memory
models border their compact factors once per pair instead of rebuilding
them from the pairs. ``benchmarks/compact_accuracy.py`` reads the compact
oracles too.
"""

from fractions import Fraction

import numpy as np

from trfam import ExactHessian, StepResult


def matrix_model(A) -> ExactHessian:
    """The fixed matrix A as a model: its ``apply`` is ``A @ v``."""
    return ExactHessian(lambda _: A, np.zeros(len(A)))


def cauchy_point(g, B, radius: float) -> StepResult:
    """Minimizer of the model along -g within the ball of the given radius.

    With positive curvature along g the step length is
    min(|g|^2 / g'Bg, radius/|g|); otherwise (concave or linear 1-d model)
    the minimum sits on the boundary.
    """
    g = np.asarray(g, dtype=float)
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        raise ValueError("zero gradient")
    if not radius > 0:
        raise ValueError("radius must be positive")
    Bg = B.apply(g)
    gBg = float(g @ Bg)
    t_boundary = radius / gnorm
    if gBg > 0.0:
        t = min(gnorm**2 / gBg, t_boundary)
    else:
        t = t_boundary
    decrease = t * gnorm**2 - 0.5 * t * t * gBg
    s = -t * g
    return StepResult(
        s=s,
        model_decrease=decrease,
        boundary_hit=(t == t_boundary),
        cg_iters=0,
        snorm=float(np.linalg.norm(s)),
    )


def solve_tcg_reference(g, B, radius: float) -> StepResult:
    """One-shot Steihaug truncated CG: the loop ``trfam.solve_tcg`` ran
    before it kept a path, with the model decrease read off a final
    product s'Bs. It stops inside on a residual <= min(0.1, sqrt|g|) |g|
    or after n iterations, as ``SteihaugPath`` does."""
    g = np.asarray(g, dtype=float)
    n = g.size
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        raise ValueError("zero gradient")
    if not radius > 0:
        raise ValueError("radius must be positive")
    cg_tol = min(0.1, np.sqrt(gnorm))

    def to_boundary(s, d):
        dd = float(d @ d)
        sd = float(s @ d)
        ss = float(s @ s)
        disc = sd * sd + dd * (radius * radius - ss)
        return (-sd + np.sqrt(max(disc, 0.0))) / dd

    s = np.zeros(n)
    r = g.copy()
    d = -g
    rr = gnorm**2
    iters = 0
    boundary = False
    for _ in range(n):
        Bd = B.apply(d)
        dBd = float(d @ Bd)
        iters += 1
        if dBd <= 0.0:
            s = s + to_boundary(s, d) * d
            boundary = True
            break
        alpha = rr / dBd
        trial = s + alpha * d
        if np.linalg.norm(trial) >= radius:
            s = s + to_boundary(s, d) * d
            boundary = True
            break
        s = trial
        r = r + alpha * Bd
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= cg_tol * gnorm:
            break
        d = -r + (rr_new / rr) * d
        rr = rr_new
    decrease = -(float(g @ s) + 0.5 * float(s @ B.apply(s)))
    return StepResult(s=s, model_decrease=decrease, boundary_hit=boundary, cg_iters=iters,
                      snorm=float(np.linalg.norm(s)))


def beats_cauchy(step: StepResult, g, B, radius: float) -> bool:
    """The step's model decrease is at least the Cauchy point's, up to a
    relative rounding slack of 1e-12."""
    cauchy = cauchy_point(g, B, radius).model_decrease
    return step.model_decrease >= cauchy - 1e-12 * max(1.0, abs(cauchy))


def dense_matrix(model) -> np.ndarray:
    """B as a dense matrix, one product per column."""
    cols = [model.apply(col) for col in np.eye(model.dim)]
    return np.column_stack(cols)


def compact_windows(mode, pairs, sig):
    """Oracle: the compact form B = sig I + sign * W M^{-1} W^T rebuilt from
    the pairs by the np.block route, as (W, M, sign) for the whole window
    and then for each shorter suffix of it."""
    for start in range(len(pairs)):
        S = np.column_stack([p[0] for p in pairs[start:]])
        Y = np.column_stack([p[1] for p in pairs[start:]])
        SY = S.T @ Y
        L = np.tril(SY, -1)
        D = np.diag(np.diag(SY))
        if mode == "lbfgs":
            yield np.hstack([sig * S, Y]), np.block([[sig * (S.T @ S), L], [L.T, -D]]), -1.0
        else:
            yield Y - sig * S, D + L + L.T - sig * (S.T @ S), 1.0


def compact_apply_reference(mode, pairs, sig, v):
    """Oracle: the compact-form product rebuilt from the pairs on every call,
    with L-SR1 shedding its oldest pair while M is singular."""
    for W, M, sign in compact_windows(mode, list(pairs), sig):
        try:
            return sig * v + sign * (W @ np.linalg.solve(M, W.T @ v))
        except np.linalg.LinAlgError:
            if mode == "lbfgs":
                raise
    return sig * v


def compact_norm_reference(mode, pairs, n):
    """Oracle: |B| with sigma = 1 by the thin-QR and k x k eigvalsh route,
    with L-SR1 shedding its oldest pair while M is singular."""
    for W, M, sign in compact_windows(mode, list(pairs), 1.0):
        try:
            K = np.linalg.solve(M, W.T)
        except np.linalg.LinAlgError:
            if mode == "lbfgs":
                raise
            continue
        Q, R = np.linalg.qr(W)
        C = R @ K @ Q
        norm = float(np.max(np.abs(1.0 + sign * np.linalg.eigvalsh(0.5 * (C + C.T)))))
        return max(norm, 1.0) if n > Q.shape[1] else norm
    return 1.0


def _solve_exact(M, b):
    """x with M x = b, by Gaussian elimination in rational arithmetic; None
    when M is singular."""
    k = len(b)
    A = [list(row) + [bi] for row, bi in zip(M, b)]
    for c in range(k):
        pivot = next((r for r in range(c, k) if A[r][c]), None)
        if pivot is None:
            return None
        A[c], A[pivot] = A[pivot], A[c]
        for r in range(c + 1, k):
            f = A[r][c] / A[c][c]
            if f:
                A[r] = [a - f * p for a, p in zip(A[r], A[c])]
    x = [Fraction(0)] * k
    for c in reversed(range(k)):
        x[c] = (A[c][k] - sum(A[c][j] * x[j] for j in range(c + 1, k))) / A[c][c]
    return x


def compact_apply_exact(mode, pairs, v) -> list[float]:
    """Oracle: the compact-form product B v with sigma = 1 in exact rational
    arithmetic (``fractions.Fraction``, standard library only), each entry
    rounded once to the nearest float. The pairs and v are read as the
    exact values of their floats, and W and M are built from them as
    ``compact_windows`` builds them, with no rounding. L-SR1 sheds its
    oldest pair while M is exactly singular; a singular L-BFGS M raises
    ZeroDivisionError."""
    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), Fraction(0))

    v = [Fraction(x) for x in v]
    pairs = [([Fraction(x) for x in s], [Fraction(x) for x in y]) for s, y in pairs]
    for start in range(len(pairs)):
        S = [s for s, _ in pairs[start:]]
        Y = [y for _, y in pairs[start:]]
        k = len(S)
        SS = [[dot(a, b) for b in S] for a in S]
        SY = [[dot(a, b) for b in Y] for a in S]
        if mode == "lbfgs":
            # [[S'S, L], [L', -D]]: L strictly lower of S'Y, D its diagonal
            W, sign = S + Y, -1
            M = [SS[i] + [SY[i][j] if i > j else 0 for j in range(k)] for i in range(k)]
            M += [[SY[j][i] if j > i else 0 for j in range(k)]
                  + [-SY[i][i] if i == j else 0 for j in range(k)] for i in range(k)]
        else:
            # D + L + L' - S'S, over the columns of Y - S
            W, sign = [[b - a for a, b in zip(s, y)] for s, y in zip(S, Y)], 1
            M = [[SY[max(i, j)][min(i, j)] - SS[i][j] for j in range(k)] for i in range(k)]
        z = _solve_exact(M, [dot(w, v) for w in W])
        if z is None:
            if mode == "lbfgs":
                raise ZeroDivisionError("singular L-BFGS M")
            continue
        return [float(vi + sign * sum((zj * w[i] for zj, w in zip(z, W)), Fraction(0)))
                for i, vi in enumerate(v)]
    return [float(vi) for vi in v]

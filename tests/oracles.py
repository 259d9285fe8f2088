"""Reference implementations the tests check the package against.

None of these is on a solver's code path: ``trfam``'s step solvers meet
the fraction-of-Cauchy-decrease contract by construction, its models are
never materialised as dense matrices, its truncated CG walks a stored
path instead of running the one-shot loop below and forms r'd only where
a walk stops on the boundary, its limited-memory models border their
compact factors once per pair instead of rebuilding them from the pairs,
its built-in Hessians are whole-array expressions, not element loops, and
its worst-case interpolant forms each cubic's coefficients where it reads
them instead of storing them.
``benchmarks/compact_accuracy.py`` reads the compact oracles too, and
``benchmarks/kernels.py`` the Hessian loops.
"""

import math
import struct
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from trfam import ExactHessian, Problem, StepResult
from trfam.hessians import _doubles
from trfam.subproblem import _norm


def bits(v) -> bytes:
    """The float v's eight bytes: equal only for the same float, NaN and
    the sign of zero included."""
    return struct.pack("<d", v)


def stub(n: int) -> Problem:
    """A dimension-n problem at x0 = 0 that ``build_model`` reads only for
    its dimension; its f and g are never called."""
    return Problem("stub", n, None, None, np.zeros(n))


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


def grid_max_decrease(gnorm, gBg, stop, num=10**6):
    """The largest t |g|^2 - t^2 g'Bg / 2 over ``np.linspace(0.0, stop, num)``.

    The maximum of this quadratic in t lies at an end of the grid or, for
    g'Bg > 0, next to its vertex |g|^2 / g'Bg, so only the two ends and the
    grid points within 3 indices of the vertex are evaluated. They are the
    points linspace forms, i * step with ``stop`` as the last, so the value
    is the full grid's maximum bit for bit.
    """
    step = stop / (num - 1)
    idx = {0, num - 1}
    if gBg > 0:
        vertex = gnorm**2 / gBg / step
        if vertex < num + 3:
            mid = round(vertex)
            idx.update(i for i in range(mid - 3, mid + 4) if 0 <= i < num)
    ts = np.array(sorted(idx)) * step
    ts[-1] = stop
    return float(np.max(ts * gnorm**2 - 0.5 * ts**2 * gBg))


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


class EagerSteihaugPath:
    """``trfam.subproblem.SteihaugPath`` as it was when every CG iteration
    formed r_i'd_i and the boundary step formed s_i's_i again: the same
    walk, bit for bit, with more work per iteration."""

    def __init__(self, g, B):
        g = np.asarray(g, dtype=float)
        gnorm = _norm(g)
        self._B = B
        self._stop = min(0.1, math.sqrt(gnorm)) * gnorm
        self._max_cg = g.size
        self._s = [np.zeros(g.size)]
        self._d, self._trial_norm, self._dBd, self._rd = [], [], [], []
        self._dec = [0.0]
        self._end = None
        self._r, self._rr = g, gnorm**2
        self._Bd, self._alpha = None, 0.0

    @staticmethod
    def _to_boundary(s, d, radius):
        dd = float(d.dot(d))
        sd = float(s.dot(d))
        ss = float(s.dot(s))
        disc = sd * sd + dd * (radius * radius - ss)
        if disc == math.inf and radius != 1.0:
            return EagerSteihaugPath._to_boundary(s / radius, d / radius, 1.0)
        return (-sd + math.sqrt(max(disc, 0.0))) / dd

    def _extend(self):
        i = len(self._d)
        if i == 0:
            d = -self._r
        else:
            if i == self._max_cg:
                self._end = i
                return
            r = self._r + self._alpha * self._Bd
            rr = float(r.dot(r))
            if math.sqrt(rr) <= self._stop:
                self._end = i
                return
            d = (rr / self._rr) * self._d[-1] - r
            self._r, self._rr = r, rr
        Bd = self._B.apply(d)
        dBd = float(d.dot(Bd))
        self._d.append(d)
        self._dBd.append(dBd)
        self._rd.append(float(self._r.dot(d)))
        if dBd <= 0.0:
            self._trial_norm.append(math.inf)
            return
        alpha = self._rr / dBd
        s = self._s[-1] + alpha * d
        self._s.append(s)
        self._trial_norm.append(_norm(s))
        self._dec.append(self._dec[-1] + alpha * self._rr / 2)
        self._Bd, self._alpha = Bd, alpha

    def walk(self, radius):
        trial_norm = self._trial_norm
        i = 0
        while i != self._end:
            if i == len(trial_norm):
                self._extend()
            elif trial_norm[i] >= radius:
                s, d = self._s[i], self._d[i]
                sigma = self._to_boundary(s, d, radius)
                q = self._dBd[i]
                decrease = self._dec[i] - (sigma * self._rd[i] + (sigma * sigma * q / 2 if q else q))
                s = s + sigma * d
                return StepResult(s, decrease, True, i + 1, _norm(s))
            else:
                i += 1
        return StepResult(self._s[i], self._dec[i], False, i, trial_norm[i - 1])


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


# The built-in Hessians and Jacobians entry by entry, as element loops (and,
# for trigonometric, an np.diag_indices scatter), with each square of an
# element a float64 scalar power. Keyed by problem name; the least-squares
# problems also map to their gradient, which reads the Jacobian.

def _ext_rosenbrock_hess(x):
    n = len(x)
    a, b = x[0::2], x[1::2]
    m = np.zeros((n, n))
    for j in range(n // 2):
        i = 2 * j
        m[i, i] = 2 - 400 * (b[j] - 3 * a[j] ** 2)
        m[i, i + 1] = m[i + 1, i] = -400 * a[j]
        m[i + 1, i + 1] = 200.0
    return m


def _dixon_price_hess(x):
    n = len(x)
    idx = np.arange(2, n + 1)
    u = 2 * x[1:] ** 2 - x[:-1]
    m = np.zeros((n, n))
    m[0, 0] = 2.0
    for j in range(1, n):
        i = idx[j - 1]
        m[j, j] += 8 * i * (u[j - 1] + 4 * x[j] ** 2)
        m[j - 1, j - 1] += 2 * i
        m[j, j - 1] += -8 * i * x[j]
        m[j - 1, j] += -8 * i * x[j]
    return m


def _engval1_hess(x):
    n = len(x)
    q = x[:-1] ** 2 + x[1:] ** 2
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i] += 4 * q[i] + 8 * x[i] ** 2
        m[i + 1, i + 1] += 4 * q[i] + 8 * x[i + 1] ** 2
        m[i, i + 1] += 8 * x[i] * x[i + 1]
        m[i + 1, i] += 8 * x[i] * x[i + 1]
    return m


def _broyden_tridiagonal_res(x):
    xp = np.concatenate(([0.0], x, [0.0]))
    return (3 - 2 * xp[1:-1]) * xp[1:-1] - xp[:-2] - 2 * xp[2:] + 1


def _broyden_tridiagonal_jac(x):
    n = len(x)
    jac = np.zeros((n, n))
    for i in range(n):
        jac[i, i] = 3 - 4 * x[i]
        if i > 0:
            jac[i, i - 1] = -1.0
        if i < n - 1:
            jac[i, i + 1] = -2.0
    return jac


def _trigonometric_res(x):
    n = len(x)
    w = np.arange(1.0, n + 1)
    return n - np.cos(x).sum() + w * (1 - np.cos(x)) - np.sin(x)


def _trigonometric_jac(x):
    n = len(x)
    w = np.arange(1.0, n + 1)
    jac = np.tile(np.sin(x), (n, 1))
    jac[np.diag_indices(n)] += w * np.sin(x) - np.cos(x)
    return jac


def _trigonometric_curv(x, r):
    w = np.arange(1.0, len(x) + 1)
    return r.sum() * np.cos(x) + r * (w * np.cos(x) + np.sin(x))


def _least_squares(res, jac, curv):
    def g(x):
        return (2 * jac(x).T).dot(res(x))

    def h(x):
        jac_x = jac(x)
        m = (2 * jac_x.T).dot(jac_x)
        m[np.diag_indices(len(x))] += 2 * curv(x, res(x))
        return m

    return g, h


_broyden_g, _broyden_h = _least_squares(_broyden_tridiagonal_res, _broyden_tridiagonal_jac,
                                        lambda x, r: -4.0 * r)
_trigonometric_g, _trigonometric_h = _least_squares(_trigonometric_res, _trigonometric_jac,
                                                    _trigonometric_curv)

HESSIAN_LOOPS = {
    "ext_rosenbrock": _ext_rosenbrock_hess,
    "dixon_price": _dixon_price_hess,
    "engval1": _engval1_hess,
    "broyden_tridiagonal": _broyden_h,
    "trigonometric": _trigonometric_h,
}
GRADIENT_LOOPS = {"broyden_tridiagonal": _broyden_g, "trigonometric": _trigonometric_g}


class StoredCoefficientInterpolant:
    """``Interpolant1D`` as it was when it stored each segment's cubic
    coefficients c2 and c3 beside the knots' x, f and g, all five as
    array('d') filled from whole-array numpy expressions: the reference
    its point evaluations and both bounds are held byte-equal to."""

    TAIL_CURVATURE = 1.0
    BLOCK = 65_536

    def __init__(self, inst):
        x, f, g = inst.knots_x, inst.f_vals, inst.g_vals
        h = np.diff(x)
        d = np.diff(f)
        # cubic f(x0 + t h) = f0 + t (h g0 + t (c2 + t c3)) on each segment
        self._x, self._f, self._g = _doubles(x), _doubles(f), _doubles(g)
        self._c2 = _doubles(3.0 * d - h * (2.0 * g[:-1] + g[1:]))
        self._c3 = _doubles(-2.0 * d + h * (g[:-1] + g[1:]))
        self._next = 0

    def __call__(self, xq: float) -> tuple[float, float]:
        x = float(xq)
        knots = self._x
        i = self._next
        if x != knots[i]:
            if knots[0] < x < knots[-1]:
                i = bisect_right(knots, x) - 1
                if x != knots[i]:
                    self._next = i + 1
                    h = knots[i + 1] - knots[i]
                    t = (x - knots[i]) / h
                    c2, c3 = self._c2[i], self._c3[i]
                    val = self._f[i] + t * (h * self._g[i] + t * (c2 + t * c3))
                    slope = self._g[i] + t * (2.0 * c2 + 3.0 * c3 * t) / h
                    return val, slope
            else:
                i = 0 if x <= knots[0] else len(knots) - 1
                dx = x - knots[i]
                if dx:
                    tc = self.TAIL_CURVATURE
                    return self._f[i] + self._g[i] * dx + 0.5 * tc * dx * dx, self._g[i] + tc * dx
        self._next = i + 1 if x < knots[-1] else i
        return self._f[i], self._g[i]

    def second_derivative_bound(self) -> float:
        x, c2, c3 = np.frombuffer(self._x), np.frombuffer(self._c2), np.frombuffer(self._c3)
        bound = self.TAIL_CURVATURE
        for lo in range(0, len(c2), self.BLOCK):
            hi = min(lo + self.BLOCK, len(c2))
            h2 = np.diff(x[lo : hi + 1]) ** 2
            at0 = np.abs(2.0 * c2[lo:hi]) / h2
            at1 = np.abs(2.0 * c2[lo:hi] + 6.0 * c3[lo:hi]) / h2
            bound = max(bound, at0.max(), at1.max())
        return float(bound)

    def lower_bound(self) -> float:
        tc = self.TAIL_CURVATURE
        x, f, g = np.frombuffer(self._x), np.frombuffer(self._f), np.frombuffer(self._g)
        c2, c3 = np.frombuffer(self._c2), np.frombuffer(self._c3)
        left = f[0] if g[0] <= 0 else f[0] - g[0] ** 2 / (2 * tc)
        right = f[-1] if g[-1] >= 0 else f[-1] - g[-1] ** 2 / (2 * tc)
        low = min(left, right, f.min())
        for lo in range(0, len(c2), self.BLOCK):
            hi = min(lo + self.BLOCK, len(c2))
            fb, c2b, c3b = f[lo:hi], c2[lo:hi], c3[lo:hi]
            hg = np.diff(x[lo : hi + 1]) * g[lo:hi]
            a, b = 3.0 * c3b, 2.0 * c2b
            with np.errstate(divide="ignore", invalid="ignore"):
                q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * hg), b))
                roots = np.stack([q / a, hg / q])
            inside = (roots > 0.0) & (roots < 1.0)
            seg = np.nonzero(inside)[1]
            t = roots[inside]
            interior = fb[seg] + t * (hg[seg] + t * (c2b[seg] + t * c3b[seg]))
            low = min(low, interior.min(initial=np.inf))
        return float(low)

"""Unconstrained test problems with analytic gradients and Hessians.

The collection is fixed and versioned in code: no downloads, no generated
data, so runs are reproducible across machines. Problem names are stable
lowercase identifiers used on the command line (``--problem rosenbrock``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .lcg import Lcg

Array = np.ndarray


@dataclass(frozen=True)
class Problem:
    """An objective with value/gradient (and optionally Hessian) evaluation.

    Evaluations must be deterministic: the same point always yields
    bit-identical results. ``f_low_hint`` is a known lower bound on f,
    ``eval_hess`` returns the dense Hessian and backs the exact model mode.
    """

    name: str
    dim: int
    eval_f: Callable[[Array], float]
    eval_grad: Callable[[Array], Array]
    x0: Array
    f_low_hint: Optional[float] = None
    eval_hess: Optional[Callable[[Array], Array]] = None


@dataclass
class EvalCounter:
    """Objective/gradient evaluation tally, owned by a single run."""

    n_f: int = 0
    n_g: int = 0


def check_gradient(p: Problem, x: Array, h: float) -> float:
    """Max relative error between analytic gradient and central differences.

    The relative error of component i uses denominator max(1, |g_i|).
    Raises if h <= 0 or if any evaluation is non-finite (a defective
    problem definition).
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(p.eval_grad(x), dtype=float)
    if g.shape != (p.dim,):
        raise ValueError(f"{p.name}: gradient length {g.shape} != dim {p.dim}")
    worst = 0.0
    for i in range(p.dim):
        step = np.zeros(p.dim)
        step[i] = h
        fp = p.eval_f(x + step)
        fm = p.eval_f(x - step)
        if not (np.isfinite(fp) and np.isfinite(fm) and np.isfinite(g[i])):
            raise ValueError(f"{p.name}: non-finite evaluation near {x}")
        fd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / max(1.0, abs(g[i])))
    return worst


def probe_points(p: Problem, count: int = 10, seed: int = 0):
    """Fixed pseudo-random points x0 + u, u uniform in [-0.5, 0.5]^n."""
    rng = Lcg(seed)
    return [p.x0 + rng.vector(p.dim, -0.5, 0.5) for _ in range(count)]


# ---------------------------------------------------------------------------
# Built-in problems. Each entry defines f, grad, hess by hand.
# ---------------------------------------------------------------------------


def _sphere():
    def f(x):
        return float(np.sum(x * x))

    def g(x):
        return 2.0 * x

    def h(x):
        return 2.0 * np.eye(len(x))

    return Problem("sphere", 2, f, g, _start([1.0, 1.0]), 0.0, h)


def _rosenbrock():
    def f(x):
        return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

    def g(x):
        return np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )

    def h(x):
        return np.array(
            [
                [2 - 400 * (x[1] - 3 * x[0] ** 2), -400 * x[0]],
                [-400 * x[0], 200.0],
            ]
        )

    return Problem("rosenbrock", 2, f, g, _start([-1.2, 1.0]), 0.0, h)


def _ext_rosenbrock(n=20):
    # n/2 independent 2-d Rosenbrock blocks.
    def f(x):
        a, b = x[0::2], x[1::2]
        return float(np.sum((1 - a) ** 2 + 100 * (b - a**2) ** 2))

    def g(x):
        a, b = x[0::2], x[1::2]
        out = np.zeros(n)
        out[0::2] = -2 * (1 - a) - 400 * a * (b - a**2)
        out[1::2] = 200 * (b - a**2)
        return out

    def h(x):
        a, b = x[0::2], x[1::2]
        m = np.zeros((n, n))
        for j in range(n // 2):
            i = 2 * j
            m[i, i] = 2 - 400 * (b[j] - 3 * a[j] ** 2)
            m[i, i + 1] = m[i + 1, i] = -400 * a[j]
            m[i + 1, i + 1] = 200.0
        return m

    x0 = np.tile([-1.2, 1.0], n // 2)
    return Problem("ext_rosenbrock", n, f, g, _start(x0), 0.0, h)


def _beale():
    cs = (1.5, 2.25, 2.625)

    def f(x):
        return float(sum((c - x[0] * (1 - x[1] ** i)) ** 2 for i, c in enumerate(cs, 1)))

    def g(x):
        gx = gy = 0.0
        for i, c in enumerate(cs, 1):
            t = c - x[0] * (1 - x[1] ** i)
            gx += 2 * t * -(1 - x[1] ** i)
            gy += 2 * t * x[0] * i * x[1] ** (i - 1)
        return np.array([gx, gy])

    def h(x):
        m = np.zeros((2, 2))
        for i, c in enumerate(cs, 1):
            t = c - x[0] * (1 - x[1] ** i)
            tx = -(1 - x[1] ** i)
            ty = x[0] * i * x[1] ** (i - 1)
            txy = i * x[1] ** (i - 1)
            tyy = x[0] * i * (i - 1) * (x[1] ** (i - 2) if i > 1 else 0.0)
            m[0, 0] += 2 * tx * tx
            m[0, 1] += 2 * (ty * tx + t * txy)
            m[1, 1] += 2 * (ty * ty + t * tyy)
        m[1, 0] = m[0, 1]
        return m

    return Problem("beale", 2, f, g, _start([1.0, 1.0]), 0.0, h)


def _himmelblau():
    def f(x):
        return float((x[0] ** 2 + x[1] - 11) ** 2 + (x[0] + x[1] ** 2 - 7) ** 2)

    def g(x):
        u = x[0] ** 2 + x[1] - 11
        v = x[0] + x[1] ** 2 - 7
        return np.array([4 * x[0] * u + 2 * v, 2 * u + 4 * x[1] * v])

    def h(x):
        u = x[0] ** 2 + x[1] - 11
        v = x[0] + x[1] ** 2 - 7
        return np.array(
            [
                [4 * u + 8 * x[0] ** 2 + 2, 4 * x[0] + 4 * x[1]],
                [4 * x[0] + 4 * x[1], 4 * v + 8 * x[1] ** 2 + 2],
            ]
        )

    return Problem("himmelblau", 2, f, g, _start([0.0, 0.0]), 0.0, h)


def _powell_singular():
    def f(x):
        return float(
            (x[0] + 10 * x[1]) ** 2
            + 5 * (x[2] - x[3]) ** 2
            + (x[1] - 2 * x[2]) ** 4
            + 10 * (x[0] - x[3]) ** 4
        )

    def g(x):
        a = x[0] + 10 * x[1]
        b = x[2] - x[3]
        c = x[1] - 2 * x[2]
        d = x[0] - x[3]
        return np.array(
            [
                2 * a + 40 * d**3,
                20 * a + 4 * c**3,
                10 * b - 8 * c**3,
                -10 * b - 40 * d**3,
            ]
        )

    def h(x):
        c = x[1] - 2 * x[2]
        d = x[0] - x[3]
        m = np.zeros((4, 4))
        m[0, 0] = 2 + 120 * d**2
        m[0, 1] = m[1, 0] = 20.0
        m[0, 3] = m[3, 0] = -120 * d**2
        m[1, 1] = 200 + 12 * c**2
        m[1, 2] = m[2, 1] = -24 * c**2
        m[2, 2] = 10 + 48 * c**2
        m[2, 3] = m[3, 2] = -10.0
        m[3, 3] = 10 + 120 * d**2
        return m

    return Problem("powell_singular", 4, f, g, _start([3.0, -1.0, 0.0, 1.0]), 0.0, h)


def _dixon_price(n=10):
    idx = np.arange(2, n + 1)  # weights for terms i = 2..n

    def f(x):
        u = 2 * x[1:] ** 2 - x[:-1]
        return float((x[0] - 1) ** 2 + np.sum(idx * u**2))

    def g(x):
        u = 2 * x[1:] ** 2 - x[:-1]
        out = np.zeros(n)
        out[0] = 2 * (x[0] - 1)
        out[1:] += idx * 8 * u * x[1:]
        out[:-1] += -2 * idx * u
        return out

    def h(x):
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

    return Problem("dixon_price", n, f, g, _start(np.full(n, 1.0)), 0.0, h)


def _trigonometric(n=10):
    w = np.arange(1.0, n + 1)

    def _res(x):
        return n - np.sum(np.cos(x)) + w * (1 - np.cos(x)) - np.sin(x)

    def f(x):
        return float(np.sum(_res(x) ** 2))

    def g(x):
        r = _res(x)
        # J_ij = sin(x_j) + delta_ij * (i sin(x_i) - cos(x_i))
        jac = np.tile(np.sin(x), (n, 1))
        jac[np.diag_indices(n)] += w * np.sin(x) - np.cos(x)
        return 2 * jac.T @ r

    def h(x):
        r = _res(x)
        jac = np.tile(np.sin(x), (n, 1))
        jac[np.diag_indices(n)] += w * np.sin(x) - np.cos(x)
        m = 2 * jac.T @ jac
        # residual curvature: d2 r_i = diag(cos x) + delta_ii (i cos x_i + sin x_i)
        diag = np.sum(r) * np.cos(x) + r * (w * np.cos(x) + np.sin(x))
        m[np.diag_indices(n)] += 2 * diag
        return m

    return Problem("trigonometric", n, f, g, _start(np.full(n, 1.0 / n)), 0.0, h)


def _zakharov(n=10):
    v = 0.5 * np.arange(1.0, n + 1)

    def f(x):
        w = float(v @ x)
        return float(np.sum(x * x) + w**2 + w**4)

    def g(x):
        w = float(v @ x)
        return 2 * x + (2 * w + 4 * w**3) * v

    def h(x):
        w = float(v @ x)
        return 2 * np.eye(n) + (2 + 12 * w**2) * np.outer(v, v)

    return Problem("zakharov", n, f, g, _start(np.full(n, 1.0)), 0.0, h)


def _styblinski_tang(n=5):
    # Nonconvex quartic; per-coordinate minimum is about -39.16617.
    def f(x):
        return float(0.5 * np.sum(x**4 - 16 * x**2 + 5 * x))

    def g(x):
        return 0.5 * (4 * x**3 - 32 * x + 5)

    def h(x):
        return np.diag(6 * x**2 - 16)

    return Problem("styblinski_tang", n, f, g, _start(np.full(n, -1.0)), -39.17 * n, h)


def _booth():
    def f(x):
        return float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2)

    def g(x):
        return np.array(
            [
                2 * (x[0] + 2 * x[1] - 7) + 4 * (2 * x[0] + x[1] - 5),
                4 * (x[0] + 2 * x[1] - 7) + 2 * (2 * x[0] + x[1] - 5),
            ]
        )

    def h(x):
        return np.array([[10.0, 8.0], [8.0, 10.0]])

    return Problem("booth", 2, f, g, _start([0.0, 0.0]), 0.0, h)


def _matyas():
    def f(x):
        return float(0.26 * (x[0] ** 2 + x[1] ** 2) - 0.48 * x[0] * x[1])

    def g(x):
        return np.array([0.52 * x[0] - 0.48 * x[1], 0.52 * x[1] - 0.48 * x[0]])

    def h(x):
        return np.array([[0.52, -0.48], [-0.48, 0.52]])

    return Problem("matyas", 2, f, g, _start([3.0, 4.0]), 0.0, h)


def _six_hump_camel():
    def f(x):
        a, b = x
        return float(4 * a**2 - 2.1 * a**4 + a**6 / 3 + a * b - 4 * b**2 + 4 * b**4)

    def g(x):
        a, b = x
        return np.array(
            [8 * a - 8.4 * a**3 + 2 * a**5 + b, a - 8 * b + 16 * b**3]
        )

    def h(x):
        a, b = x
        return np.array(
            [[8 - 25.2 * a**2 + 10 * a**4, 1.0], [1.0, -8 + 48 * b**2]]
        )

    return Problem("six_hump_camel", 2, f, g, _start([-1.0, 1.0]), -1.032, h)


def _branin():
    a, b, c = 1.0, 5.1 / (4 * np.pi**2), 5.0 / np.pi
    r, s, t = 6.0, 10.0, 1.0 / (8 * np.pi)

    def f(x):
        w = x[1] - b * x[0] ** 2 + c * x[0] - r
        return float(a * w**2 + s * (1 - t) * np.cos(x[0]) + s)

    def g(x):
        w = x[1] - b * x[0] ** 2 + c * x[0] - r
        return np.array(
            [2 * a * w * (-2 * b * x[0] + c) - s * (1 - t) * np.sin(x[0]), 2 * a * w]
        )

    def h(x):
        w = x[1] - b * x[0] ** 2 + c * x[0] - r
        dwdx = -2 * b * x[0] + c
        return np.array(
            [
                [2 * a * dwdx**2 - 4 * a * b * w - s * (1 - t) * np.cos(x[0]), 2 * a * dwdx],
                [2 * a * dwdx, 2 * a],
            ]
        )

    return Problem("branin", 2, f, g, _start([2.5, 7.5]), 0.397, h)


def _wood():
    def f(x):
        return float(
            100 * (x[1] - x[0] ** 2) ** 2
            + (1 - x[0]) ** 2
            + 90 * (x[3] - x[2] ** 2) ** 2
            + (1 - x[2]) ** 2
            + 10.1 * ((x[1] - 1) ** 2 + (x[3] - 1) ** 2)
            + 19.8 * (x[1] - 1) * (x[3] - 1)
        )

    def g(x):
        return np.array(
            [
                -400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                200 * (x[1] - x[0] ** 2) + 20.2 * (x[1] - 1) + 19.8 * (x[3] - 1),
                -360 * x[2] * (x[3] - x[2] ** 2) - 2 * (1 - x[2]),
                180 * (x[3] - x[2] ** 2) + 20.2 * (x[3] - 1) + 19.8 * (x[1] - 1),
            ]
        )

    def h(x):
        m = np.zeros((4, 4))
        m[0, 0] = -400 * (x[1] - 3 * x[0] ** 2) + 2
        m[0, 1] = m[1, 0] = -400 * x[0]
        m[1, 1] = 220.2
        m[1, 3] = m[3, 1] = 19.8
        m[2, 2] = -360 * (x[3] - 3 * x[2] ** 2) + 2
        m[2, 3] = m[3, 2] = -360 * x[2]
        m[3, 3] = 200.2
        return m

    return Problem("wood", 4, f, g, _start([-3.0, -1.0, -3.0, -1.0]), 0.0, h)


def _illcond_quad(n=30, cond=1e4):
    d = cond ** (np.arange(n) / (n - 1))

    def f(x):
        return float(0.5 * np.sum(d * x * x))

    def g(x):
        return d * x

    def h(x):
        return np.diag(d)

    return Problem("illcond_quad", n, f, g, _start(np.full(n, 1.0)), 0.0, h)


def _trid(n=10):
    def f(x):
        return float(np.sum((x - 1) ** 2) - np.sum(x[1:] * x[:-1]))

    def g(x):
        out = 2 * (x - 1)
        out[1:] -= x[:-1]
        out[:-1] -= x[1:]
        return out

    def h(x):
        m = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        return m

    # known minimum value -n(n+4)(n-1)/6
    return Problem("trid", n, f, g, _start(np.zeros(n)), -n * (n + 4) * (n - 1) / 6, h)


def _broyden_tridiagonal(n=12):
    def _res(x):
        xp = np.concatenate(([0.0], x, [0.0]))
        return (3 - 2 * xp[1:-1]) * xp[1:-1] - xp[:-2] - 2 * xp[2:] + 1

    def f(x):
        return float(np.sum(_res(x) ** 2))

    def _jac(x):
        jac = np.zeros((n, n))
        for i in range(n):
            jac[i, i] = 3 - 4 * x[i]
            if i > 0:
                jac[i, i - 1] = -1.0
            if i < n - 1:
                jac[i, i + 1] = -2.0
        return jac

    def g(x):
        return 2 * _jac(x).T @ _res(x)

    def h(x):
        r = _res(x)
        jac = _jac(x)
        m = 2 * jac.T @ jac
        m[np.diag_indices(n)] += 2 * r * (-4.0)
        return m

    return Problem("broyden_tridiagonal", n, f, g, _start(np.full(n, -1.0)), 0.0, h)


def _arwhead(n=100):
    def f(x):
        q = x[:-1] ** 2 + x[-1] ** 2
        return float(np.sum(q**2 - 4 * x[:-1] + 3))

    def g(x):
        q = x[:-1] ** 2 + x[-1] ** 2
        out = np.zeros(n)
        out[:-1] = 4 * x[:-1] * q - 4
        out[-1] = 4 * x[-1] * np.sum(q)
        return out

    def h(x):
        q = x[:-1] ** 2 + x[-1] ** 2
        m = np.zeros((n, n))
        m[np.arange(n - 1), np.arange(n - 1)] = 4 * q + 8 * x[:-1] ** 2
        m[:-1, -1] = m[-1, :-1] = 8 * x[:-1] * x[-1]
        m[-1, -1] = np.sum(4 * q + 8 * x[-1] ** 2)
        return m

    return Problem("arwhead", n, f, g, _start(np.full(n, 1.0)), 0.0, h)


def _engval1(n=50):
    def f(x):
        q = x[:-1] ** 2 + x[1:] ** 2
        return float(np.sum(q**2 - 4 * x[:-1] + 3))

    def g(x):
        q = x[:-1] ** 2 + x[1:] ** 2
        out = np.zeros(n)
        out[:-1] += 4 * x[:-1] * q - 4
        out[1:] += 4 * x[1:] * q
        return out

    def h(x):
        q = x[:-1] ** 2 + x[1:] ** 2
        m = np.zeros((n, n))
        for i in range(n - 1):
            m[i, i] += 4 * q[i] + 8 * x[i] ** 2
            m[i + 1, i + 1] += 4 * q[i] + 8 * x[i + 1] ** 2
            m[i, i + 1] += 8 * x[i] * x[i + 1]
            m[i + 1, i] += 8 * x[i] * x[i + 1]
        return m

    return Problem("engval1", n, f, g, _start(np.full(n, 2.0)), None, h)


def _penalty1(n=10, a=1e-5):
    def f(x):
        w = float(np.sum(x * x) - 0.25)
        return float(a * np.sum((x - 1) ** 2) + w**2)

    def g(x):
        w = float(np.sum(x * x) - 0.25)
        return 2 * a * (x - 1) + 4 * w * x

    def h(x):
        w = float(np.sum(x * x) - 0.25)
        return (2 * a + 4 * w) * np.eye(n) + 8 * np.outer(x, x)

    return Problem("penalty1", n, f, g, _start(np.arange(1.0, n + 1)), 0.0, h)


def _variably_dimensioned(n=10):
    v = np.arange(1.0, n + 1)

    def f(x):
        w = float(v @ (x - 1))
        return float(np.sum((x - 1) ** 2) + w**2 + w**4)

    def g(x):
        w = float(v @ (x - 1))
        return 2 * (x - 1) + (2 * w + 4 * w**3) * v

    def h(x):
        w = float(v @ (x - 1))
        return 2 * np.eye(n) + (2 + 12 * w**2) * np.outer(v, v)

    return Problem("variably_dimensioned", n, f, g, _start(1.0 - v / n), 0.0, h)


def _rastrigin(n=6):
    def f(x):
        return float(10 * n + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))

    def g(x):
        return 2 * x + 20 * np.pi * np.sin(2 * np.pi * x)

    def h(x):
        return np.diag(2 + 40 * np.pi**2 * np.cos(2 * np.pi * x))

    return Problem("rastrigin", n, f, g, _start(np.full(n, 0.9)), 0.0, h)


def _cliff():
    def f(x):
        d = x[0] - x[1]
        return float(((x[0] - 3) / 100.0) ** 2 - d + np.exp(20 * d))

    def g(x):
        e = np.exp(20 * (x[0] - x[1]))
        return np.array([2 * (x[0] - 3) / 1e4 - 1 + 20 * e, 1 - 20 * e])

    def h(x):
        e = np.exp(20 * (x[0] - x[1]))
        return np.array([[2e-4 + 400 * e, -400 * e], [-400 * e, 400 * e]])

    return Problem("cliff", 2, f, g, _start([0.0, -1.0]), 0.19, h)


def _start(values) -> Array:
    x0 = np.array(values, dtype=float)
    x0.setflags(write=False)
    return x0


_BUILDERS = (
    _sphere,
    _rosenbrock,
    _ext_rosenbrock,
    _beale,
    _himmelblau,
    _powell_singular,
    _dixon_price,
    _trigonometric,
    _zakharov,
    _styblinski_tang,
    _booth,
    _matyas,
    _six_hump_camel,
    _branin,
    _wood,
    _illcond_quad,
    _trid,
    _broyden_tridiagonal,
    _arwhead,
    _engval1,
    _penalty1,
    _variably_dimensioned,
    _rastrigin,
    _cliff,
)


def builtin_collection() -> list[Problem]:
    """All built-in problems, in a fixed order."""
    return [b() for b in _BUILDERS]


def get_problem(name: str) -> Problem:
    for p in builtin_collection():
        if p.name == name:
            return p
    raise KeyError(f"unknown problem name: {name!r}")

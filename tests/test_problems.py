"""Tests for the built-in problem collection and the gradient checker."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from trfam import builtin_collection, check_gradient, get_problem, problems
from trfam.problems import probe_points

from oracles import GRADIENT_LOOPS, HESSIAN_LOOPS

REQUIRED = {
    "sphere",
    "rosenbrock",
    "ext_rosenbrock",
    "beale",
    "himmelblau",
    "powell_singular",
    "dixon_price",
    "trigonometric",
    "zakharov",
    "styblinski_tang",
}


def test_collection_shape():
    probs = builtin_collection()
    names = [p.name for p in probs]
    assert len(probs) >= 20
    assert len(set(names)) == len(names)
    assert REQUIRED <= set(names)
    assert all(2 <= p.dim <= 100 for p in probs)
    assert get_problem("ext_rosenbrock").dim == 20
    assert get_problem("powell_singular").dim == 4
    assert get_problem("dixon_price").dim == 10
    assert get_problem("trigonometric").dim == 10
    assert get_problem("zakharov").dim == 10


def test_sphere_minimizer():
    p = get_problem("sphere")
    x = np.zeros(2)
    assert p.eval_f(x) == 0.0
    assert np.all(p.eval_grad(x) == 0.0)


def test_rosenbrock_values():
    p = get_problem("rosenbrock")
    assert p.eval_f(np.array([1.0, 1.0])) == 0.0
    assert np.all(p.eval_grad(np.array([1.0, 1.0])) == 0.0)
    # hand evaluation: (1 - (-1.2))^2 + 100 (1 - 1.44)^2 = 4.84 + 19.36
    assert p.eval_f(np.array([-1.2, 1.0])) == pytest.approx(24.2, rel=1e-15)


def test_check_gradient_sphere_quadratic_exact():
    p = get_problem("sphere")
    assert check_gradient(p, np.array([1.0, 2.0]), 1e-6) <= 1e-8


def test_check_gradient_rosenbrock():
    p = get_problem("rosenbrock")
    assert check_gradient(p, np.array([-1.2, 1.0]), 1e-6) <= 1e-6


def test_check_gradient_rejects_degenerate_step():
    p = get_problem("sphere")
    for h in (0.0, -1e-6, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            check_gradient(p, p.x0, h)


def test_check_gradient_flags_defective_problem():
    from trfam.problems import Problem

    bad = Problem(
        "bad", 1, lambda x: float("nan"), lambda x: np.zeros(1), np.zeros(1)
    )
    with pytest.raises(ValueError):
        check_gradient(bad, np.zeros(1), 1e-6)


@pytest.mark.parametrize("prob", builtin_collection(), ids=lambda p: p.name)
def test_gradients_validate_at_seeded_points(prob):
    for x in [prob.x0] + probe_points(prob, count=10, seed=0):
        assert check_gradient(prob, x, 1e-6) <= 1e-5


@pytest.mark.parametrize("prob", builtin_collection(), ids=lambda p: p.name)
def test_f_low_hint_is_a_lower_bound(prob):
    if prob.f_low_hint is None:
        pytest.skip("no lower bound recorded")
    for x in [prob.x0] + probe_points(prob, count=10, seed=0):
        assert prob.eval_f(x) >= prob.f_low_hint


@pytest.mark.parametrize("prob", builtin_collection(), ids=lambda p: p.name)
def test_evaluations_deterministic(prob):
    x = prob.x0 + 0.1
    assert prob.eval_f(x) == prob.eval_f(x)
    assert np.array_equal(prob.eval_grad(x), prob.eval_grad(x))


@pytest.mark.parametrize("prob", builtin_collection(), ids=lambda p: p.name)
def test_hessians_match_gradient_differences(prob):
    # central difference of the analytic gradient, column by column
    h = 1e-6
    for x in [prob.x0] + probe_points(prob, count=2, seed=0):
        H = prob.eval_hess(x)
        assert np.allclose(H, H.T, atol=1e-10)
        for i in range(prob.dim):
            e = np.zeros(prob.dim)
            e[i] = h
            col = (prob.eval_grad(x + e) - prob.eval_grad(x - e)) / (2 * h)
            denom = np.maximum(1.0, np.abs(H[:, i]))
            assert np.max(np.abs(col - H[:, i]) / denom) <= 1e-4


@pytest.mark.parametrize("prob", builtin_collection(), ids=lambda p: p.name)
def test_evaluations_past_the_float_range_do_not_raise(prob):
    # numpy gives inf or NaN there; Python's float ** raised OverflowError
    ramp = np.linspace(1.0, 2.0, prob.dim)
    with np.errstate(all="ignore"):
        for t in (1e20, 1e50, 1e100, 1e154, 1e200, 1e300):
            for x in (prob.x0 + t * ramp, prob.x0 - t * ramp):
                prob.eval_f(x)
                prob.eval_grad(x)
                prob.eval_hess(x)


def test_probe_points_reproducible():
    p = get_problem("zakharov")
    a = probe_points(p, count=3, seed=0)
    b = probe_points(p, count=3, seed=0)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    c = probe_points(p, count=3, seed=1)
    assert not np.array_equal(a[0], c[0])


SPECIAL_ENTRIES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 5e-324, -5e-324]


def seeded_points(dim, count=300):
    """Seeded points with entries over [1e-3, 1e3] in magnitude, up to four
    of them replaced by a zero, an infinity, NaN, 1e200 or a subnormal."""
    rng = np.random.default_rng(dim)
    for _ in range(count):
        x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3, dim)
        k = int(rng.integers(0, min(dim, 4) + 1))
        x[rng.choice(dim, k, replace=False)] = rng.choice(SPECIAL_ENTRIES, k)
        yield x


class TestWholeArrayHessians:
    """The Hessians and Jacobians built by whole-array expressions against
    the element loops of ``oracles``, bit for bit, at finite points and past
    the float range."""

    @pytest.mark.parametrize("name", sorted(HESSIAN_LOOPS))
    @np.errstate(all="ignore")
    def test_hessians_and_gradients_match_the_loops(self, name):
        p = get_problem(name)
        for x in seeded_points(p.dim):
            assert p.eval_hess(x).tobytes() == HESSIAN_LOOPS[name](x).tobytes(), x
            if name in GRADIENT_LOOPS:
                assert p.eval_grad(x).tobytes() == GRADIENT_LOOPS[name](x).tobytes(), x

    @pytest.mark.parametrize("name, index", [("ext_rosenbrock", 363), ("dixon_price", 161),
                                             ("engval1", 388)])
    @np.errstate(all="ignore")
    def test_squares_are_scalar_powers(self, monkeypatch, name, index):
        # at this seeded point, squaring as v * v (the vector v ** 2) in
        # place of the scalar power moves the Hessian off the loop's bits
        *_, x = seeded_points(get_problem(name).dim, count=index + 1)
        assert get_problem(name).eval_hess(x).tobytes() == HESSIAN_LOOPS[name](x).tobytes()
        monkeypatch.setattr(problems, "_squares", lambda v: v * v)
        assert get_problem(name).eval_hess(x).tobytes() != HESSIAN_LOOPS[name](x).tobytes()


def test_no_range_loop_in_an_objective():
    # the objectives a builder nests are whole-array expressions: no loop
    # over range(...) in any of them (beale's three-term enumerate loops
    # are not over the dimension, and check_gradient is no builder's)
    tree = ast.parse(Path(problems.__file__).read_text())
    loops = [f"{builder.name}.{objective.name} line {node.lineno}"
             for builder in tree.body if isinstance(builder, ast.FunctionDef)
             for objective in ast.walk(builder)
             if isinstance(objective, ast.FunctionDef) and objective is not builder
             for node in ast.walk(objective)
             if isinstance(node, (ast.For, ast.comprehension))
             and isinstance(node.iter, ast.Call) and getattr(node.iter.func, "id", None) == "range"]
    assert not loops, loops

"""Tests for the built-in problem collection and the gradient checker."""

import numpy as np
import pytest

from trfam import builtin_collection, check_gradient, get_problem
from trfam.problems import probe_points

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
    with pytest.raises(ValueError):
        check_gradient(p, p.x0, 0.0)


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

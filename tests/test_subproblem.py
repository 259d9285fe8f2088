"""Tests for the scaled radius and the step solvers, against the Cauchy
point of ``oracles``."""

import math

import numpy as np
import pytest

from trfam import (
    ScriptedModel, ZeroModel, build_model, effective_radius, newton_step_1d, solve_tcg,
)
from trfam.subproblem import SolveError, SteihaugPath, _norm, _to_boundary

from oracles import (
    EagerSteihaugPath, beats_cauchy, bits, cauchy_point, grid_max_decrease, matrix_model,
    solve_tcg_reference, stub,
)


def random_instance(rng, n):
    """Mixed-definiteness symmetric matrix plus a nonzero gradient."""
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    kind = rng.integers(3)
    if kind == 0:  # make SPD
        A = A @ A.T + 0.1 * np.eye(n)
    elif kind == 1:  # make indefinite with a known negative direction
        A = A - (np.max(np.linalg.eigvalsh(A)) * 0.5 + 1.0) * np.eye(n)
    g = rng.standard_normal(n)
    while np.linalg.norm(g) < 1e-3:
        g = rng.standard_normal(n)
    radius = float(rng.uniform(0.1, 5.0))
    return g, A, radius


class TestEffectiveRadius:
    def test_classical(self):
        assert effective_radius(0.0, 0.0, 3.0, gnorm_term=17.0, bnorm_term=123.0) == 3.0

    def test_both_scalings(self):
        assert effective_radius(1.0, 1.0, 1.0, gnorm_term=4.0, bnorm_term=1.0) == 2.0

    def test_fractional_alpha(self):
        # 0.25^0.5 / (1+3) * 2 = 0.5 / 4 * 2
        radius = effective_radius(0.5, 1.0, 2.0, gnorm_term=0.25, bnorm_term=3.0)
        assert radius == pytest.approx(0.25, rel=1e-15)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            effective_radius(0.0, 0.0, 1.0, 0.0, 1.0)


class TestNorm:
    @np.errstate(over="ignore", invalid="ignore")
    def test_bit_identical_to_numpy(self):
        # zero, subnormal, huge (the square overflows to inf) and NaN
        # entries mixed into seeded vectors of several lengths
        rng = np.random.default_rng(11)
        specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1e200, -1.7e308, math.inf, math.nan]
        for n in (1, 2, 3, 7, 100):
            for _ in range(200):
                v = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)
                k = rng.integers(0, n + 1)
                v[rng.choice(n, k, replace=False)] = rng.choice(specials, k)
                assert bits(_norm(v)) == bits(np.linalg.norm(v)), v
        for v in ([0.0], [0.0, 0.0], [5e-324], [1e200, 1e200], [math.nan, 1.0], [-math.inf]):
            v = np.array(v)
            assert bits(_norm(v)) == bits(np.linalg.norm(v)), v

    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def test_one_element_is_the_dot_product(self):
        # _norm forms v0 * v0 in Python floats for one element: the same
        # single rounded product as v.dot(v), also where the square
        # underflows (near 1e-154 and below) or overflows (near 1e154)
        rng = np.random.default_rng(5)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                    1.4916681462400413e-154, 1.5e-154, 1e-162, 1.3407807929942596e154,
                    1.35e154, -1e160, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
        near = [c * (1.0 + d) for c in (1e-154, 1.34e154) for d in rng.uniform(-0.02, 0.02, 500)]
        spread = rng.standard_normal(5000) * 10.0 ** rng.uniform(-320, 308, 5000)
        for x in [*specials, *near, *spread]:
            v = np.array([x])
            assert bits(_norm(v)) == bits(math.sqrt(v.dot(v))), x


class TestCauchyPoint:
    def test_interior_spd(self):
        res = cauchy_point(np.array([2.0, 0.0]), matrix_model(np.eye(2)), 10.0)
        assert np.allclose(res.s, [-2.0, 0.0])
        assert res.model_decrease == pytest.approx(2.0)
        assert not res.boundary_hit
        oracle = grid_max_decrease(2.0, 4.0, 5.0)  # |g| = 2, g'Bg = 4, radius / |g| = 5
        assert res.model_decrease == pytest.approx(oracle, abs=1e-6)

    def test_negative_curvature_hits_boundary(self):
        res = cauchy_point(np.array([1.0, 0.0]), matrix_model(-np.eye(2)), 3.0)
        assert np.allclose(res.s, [-3.0, 0.0])
        assert res.model_decrease == pytest.approx(7.5)
        assert res.boundary_hit
        oracle = grid_max_decrease(1.0, -1.0, 3.0)  # |g| = 1, g'Bg = -1
        assert res.model_decrease == pytest.approx(oracle, abs=1e-6)

    def test_small_radius_boundary(self):
        res = cauchy_point(np.array([1.0, 0.0]), matrix_model(np.eye(2)), 0.5)
        assert res.model_decrease == pytest.approx(0.375)
        assert res.boundary_hit
        oracle = grid_max_decrease(1.0, 1.0, 0.5)  # |g| = 1, g'Bg = 1
        assert res.model_decrease == pytest.approx(oracle, abs=1e-6)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            cauchy_point(np.zeros(2), matrix_model(np.eye(2)), 1.0)

    def test_guaranteed_lower_bound(self):
        # decrease >= kappa_mdc |g| min{|g|/(1+|B|), R} with kappa_mdc = 1/2
        rng = np.random.default_rng(2)
        for _ in range(50):
            g, A, radius = random_instance(rng, 5)
            res = cauchy_point(g, matrix_model(A), radius)
            gnorm = np.linalg.norm(g)
            bnorm = np.max(np.abs(np.linalg.eigvalsh(A)))
            lower = 0.5 * gnorm * min(gnorm / (1 + bnorm), radius)
            assert res.model_decrease >= lower * (1 - 1e-12)


class TestTcg:
    def test_one_dimensional_newton(self):
        res = solve_tcg(np.array([-1.0]), matrix_model(np.array([[2.0]])), 100.0)
        assert np.allclose(res.s, [0.5])
        assert res.model_decrease == pytest.approx(0.25)
        assert not res.boundary_hit

    def test_boundary_matches_cauchy(self):
        g = np.array([1.0, 0.0])
        B = matrix_model(np.eye(2))
        res = solve_tcg(g, B, 0.5)
        cp = cauchy_point(g, B, 0.5)
        assert np.allclose(res.s, cp.s)
        assert res.boundary_hit

    def test_matches_newton_system(self):
        g = np.array([1.0, 1.0])
        B = np.diag([1.0, 100.0])
        m = matrix_model(B)
        res = solve_tcg(g, m, 1e6)
        assert np.allclose(res.s, [-1.0, -0.01], atol=1e-10)

    def test_matches_dense_solve_on_spd(self):
        # at |g| ~ 1e-12 the residual stop sqrt|g| |g| is tight enough
        # that CG runs all n iterations
        rng = np.random.default_rng(4)
        n = 8
        A = rng.standard_normal((n, n))
        A = A @ A.T + 0.5 * np.eye(n)
        g = 1e-12 * rng.standard_normal(n)
        res = solve_tcg(g, matrix_model(A), 1e9)
        ref = -np.linalg.solve(A, g)
        assert res.cg_iters == n
        assert np.linalg.norm(res.s - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            solve_tcg(np.zeros(3), matrix_model(np.eye(3)), 1.0)

    def test_random_instances_decrease_and_radius(self):
        # 200 seeded instances, mixed definiteness, n <= 8
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            g, A, radius = random_instance(rng, n)
            B = matrix_model(A)
            res = solve_tcg(g, B, radius)
            assert beats_cauchy(res, g, B, radius)
            assert np.linalg.norm(res.s) <= radius * (1 + 1e-12)
            assert res.snorm == _norm(res.s)
            gnorm = np.linalg.norm(g)
            oracle = grid_max_decrease(gnorm, float(g @ (A @ g)), radius / gnorm)
            cauchy = cauchy_point(g, B, radius).model_decrease
            assert cauchy >= oracle - 1e-6 * max(1.0, abs(oracle))


def full_window_model(mode, n, rng, memory=5):
    """A limited-memory model holding a full window of curved-map pairs."""
    m = build_model(mode, stub(n), memory=memory)
    A = np.diag(np.geomspace(0.1, 10.0, n))
    u = rng.standard_normal(n)
    admitted = 0
    while admitted < memory:
        s = rng.standard_normal(n)
        admitted += m.update(s, A @ s + 0.1 * (s @ s) * u)
    return m


class TestCauchyDecreaseFromFirstCgStep:
    """The first CG iterate is the Cauchy point and CG only lowers the
    model from there, so every step's decrease is at least the oracle's
    Cauchy decrease, up to rounding."""

    def test_dense_spd_and_indefinite(self):
        rng = np.random.default_rng(21)
        for _ in range(600):
            n = int(rng.integers(1, 13))
            g, A, radius = random_instance(rng, n)
            B = matrix_model(A)
            for r in (radius, 1e-3 * radius, 1e3 * radius):
                assert beats_cauchy(solve_tcg(g, B, r), g, B, r)

    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_full_window_models(self, mode, n):
        rng = np.random.default_rng(n)
        m = full_window_model(mode, n, rng)
        for _ in range(100):
            g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            r = 10.0 ** rng.uniform(-3, 3)
            assert beats_cauchy(solve_tcg(g, m, r), g, m, r)


# The path's decrease comes from the CG recurrences, the reference's from a
# final product s'Bs; they differ in rounding only. The largest relative
# difference seen on the cases below is 3.4e-14, and the largest change of
# rho in the benchmark runs 5.5e-11.
DECREASE_RTOL = 1e-10


def assert_matches_reference(step, g, B, radius):
    ref = solve_tcg_reference(g, B, radius)
    assert np.array_equal(step.s, ref.s)
    assert step.snorm == _norm(step.s)
    assert (step.cg_iters, step.boundary_hit) == (ref.cg_iters, ref.boundary_hit)
    assert step.model_decrease == pytest.approx(ref.model_decrease, rel=DECREASE_RTOL)


def counting(model):
    """The model with its ``apply`` calls counted in ``model.products``."""
    model.products = 0
    apply = model.apply

    def counted(v):
        model.products += 1
        return apply(v)

    model.apply = counted
    return model


def path_cases():
    """Dense SPD and indefinite matrices and full-window L-BFGS/L-SR1
    models, each with a gradient and a radius; the models count their
    products."""
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        g, A, radius = random_instance(rng, n)
        yield g, counting(matrix_model(A)), radius
    for mode in ("lbfgs", "lsr1"):
        for n in (3, 8, 40):
            m = counting(full_window_model(mode, n, rng))
            for _ in range(20):
                g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                yield g, m, 10.0 ** rng.uniform(-3, 3)


class TestSteihaugPath:
    """The path walk against the one-shot loop of ``oracles``: the same
    step bit for bit, and the same decrease up to rounding."""

    def test_one_shot_matches_the_reference(self):
        for g, B, radius in path_cases():
            for r in (radius, 1e-3 * radius, 1e3 * radius):
                assert_matches_reference(solve_tcg(g, B, r), g, B, r)

    def test_descending_radii_on_one_path_then_an_extension(self):
        extended = rewalked_to_boundary = 0
        for g, B, radius in path_cases():
            B.products = 0
            path = SteihaugPath(g, B)
            assert B.products == 0  # built lazily
            for i, r in enumerate(radius * 0.5 ** np.arange(6)):
                B.products = 0
                step = solve_tcg(g, B, r, path)
                # the first walk forms one product per CG iteration and no
                # final one; the later ones stay inside what it stored
                assert B.products == (step.cg_iters if i == 0 else 0)
                assert_matches_reference(step, g, B, r)
                # a path that reached the boundary at 2r reaches it at r
                if i and boundary_hit:
                    assert step.boundary_hit
                    rewalked_to_boundary += 1
                boundary_hit = step.boundary_hit
            B.products = 0
            r = 1e6 * radius
            step = solve_tcg(g, B, r, path)
            extended += B.products > 0
            assert_matches_reference(step, g, B, r)
        assert extended > 50  # 84 of the 180 larger radii go further along the path
        assert rewalked_to_boundary > 500  # 772 of the 900 halved radii

    def test_walks_match_the_eager_path_bit_for_bit(self):
        # the eager path forms r_i'd_i on every CG iteration and s_i's_i
        # again at the boundary; this path forms the first only where a walk
        # stops on the boundary, and keeps the second
        for g, B, radius in path_cases():
            path, eager = SteihaugPath(g, B), EagerSteihaugPath(g, B)
            for r in [*(radius * 0.5 ** np.arange(6)), 1e6 * radius]:
                step, ref = path.walk(r), eager.walk(r)
                assert step.s.tobytes() == ref.s.tobytes()
                assert bits(step.model_decrease) == bits(ref.model_decrease)
                assert bits(step.snorm) == bits(ref.snorm)
                assert (step.cg_iters, step.boundary_hit) == (ref.cg_iters, ref.boundary_hit)

    def test_interior_stop_needs_no_final_product(self):
        m = counting(matrix_model(np.diag([1.0, 4.0])))
        step = solve_tcg(np.array([1.0, 1.0]), m, 1e6)
        assert not step.boundary_hit
        assert m.products == step.cg_iters == 2
        # SPD matrices with eigenvalues over [0.1, 10] and a full L-BFGS window
        for mode, n in (("exact", 8), ("exact", 100), ("lbfgs", 100)):
            rng = np.random.default_rng(n)
            if mode == "exact":
                Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                m = counting(matrix_model((Q * np.geomspace(0.1, 10.0, n)) @ Q.T))
            else:
                m = counting(full_window_model(mode, n, rng))
            path = SteihaugPath(rng.standard_normal(n), m)
            step = path.walk(1e6)
            assert not step.boundary_hit, (mode, n)
            assert m.products == step.cg_iters
            assert path._rd == {}  # no r_i'd_i formed for a walk that ends inside
            # a walk that stops on the boundary at i forms r_i'd_i alone, and
            # a second walk that stops there reads the stored value
            r = 0.5 * step.snorm
            step = path.walk(r)
            assert step.boundary_hit
            [(i, rd)] = path._rd.items()
            assert i == step.cg_iters - 1
            path.walk(r)
            assert list(path._rd) == [i] and path._rd[i] is rd

    @pytest.mark.parametrize("matrix", [
        np.full((3, 3), math.nan),
        np.full((3, 3), 1e308),  # B d overflows; r and then s turn NaN
        np.full((3, 3), -1e308),  # d'Bd = -inf: a boundary step of infinite decrease
    ], ids=["nan", "overflow", "overflow-negative"])
    @np.errstate(all="ignore")
    def test_non_finite_decrease_raises_on_fresh_and_rewalked_paths(self, matrix):
        g = np.array([1.0, 2.0, 3.0])
        B = matrix_model(matrix)
        with pytest.raises(SolveError, match="non-finite model decrease"):
            solve_tcg(g, B, 1.0)
        path = SteihaugPath(g, B)
        for r in (1.0, 0.5):
            with pytest.raises(SolveError, match="non-finite model decrease"):
                solve_tcg(g, B, r, path)

    def test_boundary_past_where_the_discriminant_overflows(self):
        # |d| radius = 1e160: the discriminant is inf, sigma = 1e140 is not
        assert _to_boundary(np.zeros(2), np.array([1e10, 0.0]), 0.0, 1e150) == 1e140
        step = solve_tcg(np.array([1e10, 0.0]), ZeroModel(2), 1e150)
        assert step.boundary_hit
        assert step.snorm == 1e150
        assert step.model_decrease == 1e160

    def test_zero_curvature_boundary_past_where_sigma_squared_overflows(self):
        # sigma = 1e155: sigma^2 d'Bd would be inf * 0 = NaN, not a decrease
        step = solve_tcg(np.array([1e-5, 0.0]), ZeroModel(2), 1e150)
        assert step.boundary_hit
        assert step.model_decrease == 1e145
        assert step.snorm == pytest.approx(1e150, rel=1e-15)

    def test_radius_must_be_positive(self):
        path = SteihaugPath(np.ones(2), matrix_model(np.eye(2)))
        for r in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="radius must be positive"):
                solve_tcg(np.ones(2), matrix_model(np.eye(2)), r, path)


class TestNewton1d:
    def test_cauchy_decrease_is_the_step_decrease(self):
        # in 1-d the Cauchy point and the Newton step both minimize the
        # model over the ball; they differ only in rounding
        rng = np.random.default_rng(5)
        for _ in range(2000):
            g = np.array([rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 2)])
            b = rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
            radius = 10.0 ** rng.uniform(-4, 4)
            for B in (matrix_model(np.array([[b]])), ScriptedModel([b])):
                res = newton_step_1d(g, B, radius)
                cp = cauchy_point(g, B, radius)
                assert beats_cauchy(res, g, B, radius)
                assert res.snorm == _norm(res.s)
                assert res.model_decrease == pytest.approx(cp.model_decrease, rel=1e-15)

    def test_interior(self):
        for B in (matrix_model(np.array([[2.0]])), ScriptedModel([2.0])):
            for radius in (10.0, 1e6):
                res = newton_step_1d(np.array([-1.0]), B, radius)
                assert res.s[0] == res.snorm == 0.5
                assert res.model_decrease == pytest.approx(0.25)

    def test_boundary_on_negative_curvature(self):
        res = newton_step_1d(np.array([1.0]), matrix_model(np.array([[-1.0]])), 2.0)
        assert res.s[0] == -2.0
        assert res.snorm == 2.0
        assert res.boundary_hit

    def test_newton_past_radius_clips(self):
        res = newton_step_1d(np.array([-4.0]), matrix_model(np.array([[1.0]])), 1.0)
        assert res.s[0] == res.snorm == 1.0
        assert res.boundary_hit

    @pytest.mark.parametrize("g0,b,radius,is_abs", [
        (-1e-160, 1.0, 1.0, False),  # step * step = 1e-320 is subnormal
        (-3e-162, 1.0, 1.0, False),
        (-1e150, 1.0, math.inf, True),  # a Newton step of 1e150
        (1.0, 0.0, 1e150, True),  # a boundary step at the radius clip
    ])
    def test_snorm_is_the_norm_of_the_step_at_the_ends_of_the_range(self, g0, b, radius,
                                                                    is_abs):
        res = newton_step_1d(np.array([g0]), ScriptedModel([b]), radius)
        assert res.snorm == _norm(res.s)
        # a subnormal square loses bits, so |s| itself would differ
        assert (res.snorm == abs(res.s[0])) == is_abs

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            newton_step_1d(np.ones(2), matrix_model(np.eye(2)), 1.0)

    @pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("b", [2.0, -1.0])
    def test_non_finite_gradient_rejected(self, g0, b):
        with pytest.raises(ValueError, match="non-finite"):
            newton_step_1d(np.array([g0]), ScriptedModel([b]), 1.0)

    def test_infinite_radius_takes_the_newton_step(self):
        # the worst-case replays reach an overflowed radius; it stays legal
        res = newton_step_1d(np.array([-3.0]), ScriptedModel([2.0]), math.inf)
        assert res.s[0] == 1.5
        assert not res.boundary_hit
        assert res.model_decrease == 2.25

    def test_one_product_with_the_unit_vector(self):
        # a scripted model gives its curvature with no product; a model
        # without that override forms one product with e1 per step
        for model, products in [(ScriptedModel([4.0]), []),
                                (matrix_model(np.array([[4.0]])), [[1.0], [1.0]])]:
            calls = []
            apply = model.apply
            model.apply = lambda v, apply=apply: calls.append(v.copy()) or apply(v)
            steps = [newton_step_1d(np.array([g0]), model, 1.0) for g0 in (1.0, -1.0)]
            assert [c.tolist() for c in calls] == products
            assert [step.s[0] for step in steps] == [-0.25, 0.25]

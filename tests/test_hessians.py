"""Tests for the model-Hessian implementations and the growth envelope."""

import numpy as np
import pytest

from trfam import (
    IterationLog,
    LbfgsModel,
    Lsr1Model,
    ScriptedModel,
    ZeroModel,
    build_model,
    get_problem,
    measure_envelope,
)
from trfam.hessians import SIGMA, ExactHessian

from oracles import dense_matrix


def bfgs_dense_recursion(pairs, n, sigma=1.0):
    """Oracle: textbook rank-2 BFGS updates applied sequentially."""
    B = sigma * np.eye(n)
    for s, y in pairs:
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (s @ y)
    return B


def sr1_dense_recursion(pairs, n, sigma=1.0):
    B = sigma * np.eye(n)
    for s, y in pairs:
        z = y - B @ s
        B = B + np.outer(z, z) / (s @ z)
    return B


def compact_apply_reference(mode, pairs, sig, v):
    """Oracle: the compact-form product rebuilt from the pairs on every call,
    with L-SR1 shedding its oldest pair while M is singular."""
    pairs = list(pairs)
    while pairs:
        S = np.column_stack([p[0] for p in pairs])
        Y = np.column_stack([p[1] for p in pairs])
        SY = S.T @ Y
        L = np.tril(SY, -1)
        D = np.diag(np.diag(SY))
        if mode == "lbfgs":
            M = np.block([[sig * (S.T @ S), L], [L.T, -D]])
            W = np.hstack([sig * S, Y])
            return sig * v - W @ np.linalg.solve(M, W.T @ v)
        Psi = Y - sig * S
        M = D + L + L.T - sig * (S.T @ S)
        try:
            return sig * v + Psi @ np.linalg.solve(M, Psi.T @ v)
        except np.linalg.LinAlgError:
            pairs.pop(0)
    return sig * v


def feed_pairs(m, rng, count, collinear=False):
    """Update m with pairs from a curved map; collinear steps share one
    direction, which leaves W with rank at most 3."""
    n = m.dim
    A = np.diag(np.geomspace(0.1, 10.0, n))
    d, u = rng.standard_normal(n), rng.standard_normal(n)
    for _ in range(count):
        s = rng.uniform(0.5, 2.0) * d if collinear else rng.standard_normal(n)
        m.update(s, A @ s + 0.1 * (s @ s) * u)


def envelope_log(bnorms, n_succs):
    log = IterationLog()
    for bnorm, n_succ in zip(bnorms, n_succs):
        log.append(f=0.0, gnorm=1.0, delta=1.0, eff_radius=1.0, rho=2.0,
                   status="very_successful", bnorm=bnorm, n_succ=n_succ, a_k=1.0, cg_iters=1)
    return log


class TestApply:
    def test_zero_model(self):
        m = ZeroModel(3)
        assert np.array_equal(m.apply(np.array([1.0, -2.0, 3.0])), np.zeros(3))

    def test_lbfgs_no_pairs_is_identity(self):
        m = LbfgsModel(4)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(m.apply(v), v)

    def test_lbfgs_single_pair_matches_dense_formula(self):
        m = LbfgsModel(2, memory=1)
        s, y = np.array([1.0, 0.0]), np.array([2.0, 0.0])
        assert m.update(s, y)
        expected = bfgs_dense_recursion([(s, y)], 2)
        assert np.allclose(m.apply(np.array([1.0, 0.0])), expected @ [1.0, 0.0])
        assert np.allclose(m.apply(np.array([1.0, 0.0])), [2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LbfgsModel(3).apply(np.ones(4))


class TestCompactFactors:
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_apply_matches_per_call_formula(self, mode):
        rng = np.random.default_rng(13)
        m = build_model(mode, dim=9, memory=3)
        v = rng.standard_normal(9)
        for _ in range(6):  # past the memory, so pairs are evicted too
            feed_pairs(m, rng, 1)
            expected = compact_apply_reference(mode, m.pairs, SIGMA, v)
            assert np.array_equal(m.apply(v), expected)

    def test_lsr1_sheds_oldest_pair_of_singular_window(self):
        # y2 = s2 passes the SR1 test against B built from the first pair; once
        # the first pair is evicted, its column of Psi = Y - S is zero and
        # the full window's M = [[0, 0], [0, -16]] is exactly singular
        m = Lsr1Model(2, memory=2)
        steps = [([1.0, 2.0], [-1.0, 1.0]), ([-2.0, 0.0], [-2.0, 0.0]),
                 ([-2.0, 2.0], [2.0, -2.0])]
        for s, y in steps:
            assert m.update(np.array(s), np.array(y))
        pairs = [(s.copy(), y.copy()) for s, y in m.pairs]
        v = np.array([0.3, -1.7])
        assert np.array_equal(m.apply(v), compact_apply_reference("lsr1", pairs[1:], 1.0, v))
        assert len(m.pairs) == 2
        assert all(np.array_equal(a, b) for p, q in zip(m.pairs, pairs) for a, b in zip(p, q))


class TestUpdates:
    def test_bfgs_rejects_negative_curvature(self):
        m = LbfgsModel(2)
        assert not m.update(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert not m.pairs

    def test_bfgs_accepts_positive_curvature(self):
        m = LbfgsModel(2)
        # s'y = 3 >= 1e-8 * 1 * 3
        assert m.update(np.array([1.0, 0.0]), np.array([3.0, 0.0]))

    def test_sr1_rejects_exact_secant(self):
        m = Lsr1Model(2)
        s = np.array([1.0, 2.0])
        assert not m.update(s, m.apply(s))

    def test_zero_step_rejected_loudly(self):
        for mode in ("lbfgs", "lsr1"):
            with pytest.raises(ValueError, match="zero step"):
                build_model(mode, dim=2).update(np.zeros(2), np.ones(2))

    def test_rejected_update_leaves_apply_bit_identical(self):
        rng = np.random.default_rng(3)
        m = LbfgsModel(4, memory=2)
        m.update(np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0, 0]))
        v = rng.standard_normal(4)
        before = m.apply(v)
        assert not m.update(np.array([0.0, 1.0, 0, 0]), np.array([0.0, -1.0, 0, 0]))
        assert np.array_equal(m.apply(v), before)

    def test_eviction_keeps_window(self):
        m = LbfgsModel(3, memory=2)
        pairs = []
        rng = np.random.default_rng(5)
        A = np.diag([1.0, 2.0, 3.0])
        for _ in range(4):
            s = rng.standard_normal(3)
            y = A @ s
            if m.update(s, y):
                pairs.append((s, y))
        assert len(m.pairs) == 2
        expected = bfgs_dense_recursion(pairs[-2:], 3)
        assert np.allclose(dense_matrix(m), expected, atol=1e-10)


class TestOracleEquivalence:
    def test_lbfgs_full_memory_matches_dense_recursion(self):
        rng = np.random.default_rng(0)
        n = 6
        A = rng.standard_normal((n, n))
        A = A.T @ A + n * np.eye(n)
        m = LbfgsModel(n, memory=64)
        pairs = []
        for _ in range(10):
            s = rng.standard_normal(n)
            y = A @ s
            if m.update(s, y):
                pairs.append((s, y))
        assert np.max(np.abs(dense_matrix(m) - bfgs_dense_recursion(pairs, n))) <= 1e-8

    def test_lsr1_full_memory_matches_dense_recursion(self):
        rng = np.random.default_rng(1)
        n = 5
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        m = Lsr1Model(n, memory=64)
        pairs = []
        for _ in range(6):
            s = rng.standard_normal(n)
            y = A @ s + 0.05 * rng.standard_normal(n)
            if m.update(s, y):
                pairs.append((s, y))
        assert pairs
        assert np.max(np.abs(dense_matrix(m) - sr1_dense_recursion(pairs, n))) <= 1e-8


class TestSymmetry:
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_symmetry_100_random_pairs(self, mode):
        rng = np.random.default_rng(7)
        n = 8
        m = build_model(mode, dim=n, memory=5)
        A = np.diag(np.arange(1.0, n + 1))
        for _ in range(7):
            s = rng.standard_normal(n)
            m.update(s, A @ s + 0.1 * rng.standard_normal(n))
        bnorm = m.operator_norm()
        for _ in range(100):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            lhs = abs(u @ m.apply(v) - v @ m.apply(u))
            assert lhs <= 1e-10 * (1 + np.linalg.norm(u) * np.linalg.norm(v) * bnorm)


class TestOperatorNorm:
    def test_zero(self):
        assert ZeroModel(3).operator_norm() == 0.0

    def test_identity(self):
        assert LbfgsModel(4).operator_norm() == 1.0

    def test_scripted_power(self):
        # B_k = k^p at k = 9 with p = 0.5
        m = ScriptedModel(np.arange(10.0) ** 0.5)
        m.begin_iteration(9)
        assert m.operator_norm() == 3.0

    @pytest.mark.parametrize("collinear", [False, True], ids=["general", "collinear"])
    @pytest.mark.parametrize("n", [2, 8, 12, 64, 100])
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_matches_dense_eigvalsh(self, mode, n, collinear):
        # memory 5: n <= 2m and n > 2m for L-BFGS, and collinear steps make
        # W rank-deficient
        rng = np.random.default_rng(11)
        m = build_model(mode, dim=n, memory=5)
        feed_pairs(m, rng, 7, collinear)
        assert m.pairs
        dense = float(np.max(np.abs(np.linalg.eigvalsh(dense_matrix(m)))))
        assert abs(m.operator_norm() - dense) <= 1e-9 * dense

    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_sigma_off_the_pair_range(self, mode):
        # one pair with y = s / 4: B = 1/4 along s and sigma = 1 elsewhere
        m = build_model(mode, dim=12, memory=5)
        s = np.arange(1.0, 13.0)
        assert m.update(s, 0.25 * s)
        assert m.operator_norm() == pytest.approx(1.0, rel=1e-12)

    def test_cache_invalidation_on_update(self):
        m = LbfgsModel(2, memory=1)
        assert m.operator_norm() == 1.0
        m.update(np.array([1.0, 0.0]), np.array([5.0, 0.0]))
        assert m.operator_norm() == pytest.approx(5.0)

    def test_exact_model_tracks_iterate(self):
        p = get_problem("sphere")
        m = build_model("exact", p)
        assert m.operator_norm() == pytest.approx(2.0)
        v = np.array([1.0, 1.0])
        assert np.allclose(m.apply(v), 2 * v)


class TestModelsThatDoNotLearn:
    """Models without pairs ignore update; the exact model re-evaluates."""

    def test_zero_model(self):
        m = ZeroModel(2)
        v = np.array([1.0, -2.0])
        assert m.update(np.array([1.0, 0.0]), np.array([3.0, 1.0])) is False
        assert np.array_equal(m.apply(v), np.zeros(2))
        assert m.operator_norm() == 0.0

    def test_scripted_model(self):
        m = ScriptedModel([2.0, -5.0])
        v = np.array([1.5])
        m.begin_iteration(0)
        before = (m.apply(v), m.operator_norm())
        # a zero step, and one a pair model would accept: neither is read
        for s, y in ((np.zeros(1), np.zeros(1)), (np.ones(1), 2.0 * np.ones(1))):
            assert m.update(s, y) is False
            assert np.array_equal(m.apply(v), before[0])
            assert m.operator_norm() == before[1] == 2.0
        m.begin_iteration(1)
        assert np.array_equal(m.apply(v), -5.0 * v)
        assert m.operator_norm() == 5.0

    @pytest.mark.parametrize("name,same", [("sphere", True), ("rosenbrock", False)])
    def test_exact_model_reevaluates_at_the_new_iterate(self, name, same):
        # sphere is quadratic: apply and the norm stay as they were
        p = get_problem(name)
        m = ExactHessian(p.eval_hess, p.x0)
        v = np.array([1.0, -2.0])
        before = (m.apply(v), m.operator_norm())
        s = np.array([0.5, 0.25])
        assert m.update(s, np.zeros(2)) is True
        H = p.eval_hess(p.x0 + s)
        assert np.array_equal(m.apply(v), H @ v)
        assert m.operator_norm() == np.max(np.abs(np.linalg.eigvalsh(H)))
        assert (np.array_equal(m.apply(v), before[0]) and m.operator_norm() == before[1]) is same


class TestMeasureEnvelope:
    def test_constant_norms_all_successful(self):
        # |B_k| = 1, |S_0| = 1: mu_hat = 1 / (1 + 1^p) = 0.5
        log = envelope_log([1.0] * 5, range(1, 6))
        assert measure_envelope(log, 0.5, "successful") == pytest.approx(0.5)

    def test_scripted_linear_growth(self):
        # B_k = k with every iteration successful: mu_hat <= 1 for p = 1
        log = envelope_log(map(float, range(50)), range(1, 51))
        mu = measure_envelope(log, 1.0, "successful")
        assert 0 < mu <= 1.0
        # exhaustive-max oracle
        expected = max(
            max(float(j) for j in range(k + 1)) / (1 + (k + 1) ** 1.0) for k in range(50)
        )
        assert mu == pytest.approx(expected)

    def test_iteration_counter(self):
        log = envelope_log([2.0] * 3, [0] * 3)
        mu = measure_envelope(log, 1.0, "iteration")
        # max over k of 2 / (1 + k): attained at k = 0
        assert mu == pytest.approx(2.0)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            measure_envelope(IterationLog(), 0.5)

"""Tests for the model-Hessian implementations."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg

from trfam import (
    LbfgsModel,
    Lsr1Model,
    ScriptedModel,
    TrParams,
    ZeroModel,
    build_model,
    get_problem,
    solve,
)
from trfam import hessians
from trfam.driver import SolveError, _fmt
from trfam.hessians import MODEL_KINDS, ExactHessian, HessianModel

from oracles import (
    bits,
    compact_apply_exact,
    compact_apply_reference,
    compact_norm_reference,
    compact_windows,
    dense_matrix,
)


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


# The models keep K = M^{-1} W^T from one solve per window and read |B| off
# the eigenvalues of R M^{-1} R^T, R the triangular factor of W, while the
# oracles below solve with M on every call and take the thin QR's Q too, so
# the two agree to rounding only. The tolerance is about 900 float64 unit
# roundoffs (u = 2^-53), for sums of at most 10 terms on these
# well-conditioned windows; the largest relative deviation seen over the
# TestCompactFactors cases is 6.2e-15 for a product (as |Bv - ref| / |ref|)
# and 1.5e-14 for a norm. Any error in the formula is far larger.
COMPACT_RTOL = 1e-13


def close_to(actual, expected) -> bool:
    """Within COMPACT_RTOL of expected, relative to its 2-norm."""
    return np.linalg.norm(actual - expected) <= COMPACT_RTOL * np.linalg.norm(expected)


def curved_pairs(rng, n, count, collinear=False):
    """Pairs (s, y) from a curved map; collinear steps share one direction,
    which leaves W with rank at most 3."""
    A = np.diag(np.geomspace(0.1, 10.0, n))
    d, u = rng.standard_normal(n), rng.standard_normal(n)
    for _ in range(count):
        s = rng.uniform(0.5, 2.0) * d if collinear else rng.standard_normal(n)
        yield s, A @ s + 0.1 * (s @ s) * u


def feed_pairs(m, rng, count, collinear=False):
    """Update m with ``count`` pairs from ``curved_pairs``; the pairs that
    ``update`` admitted, oldest first. The window is the last ``m.memory``."""
    return [(s, y) for s, y in curved_pairs(rng, m.dim, count, collinear) if m.update(s, y)]


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
    # n = 2 leaves W rank-deficient; n = 100 is past 2 * memory
    @pytest.mark.parametrize("n", [2, 9, 100])
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_apply_matches_per_call_formula(self, mode, n):
        rng = np.random.default_rng(13)
        m = build_model(mode, dim=n, memory=3)
        v = rng.standard_normal(n)
        admitted = []
        for _ in range(6):  # past the memory, so pairs are evicted too
            admitted += feed_pairs(m, rng, 1)
            assert close_to(m.apply(v), compact_apply_reference(mode, admitted[-3:], 1.0, v))

    @pytest.mark.parametrize("collinear", [False, True], ids=["random", "collinear"])
    @pytest.mark.parametrize("memory", [1, 3, 5])
    @pytest.mark.parametrize("n", [2, 9, 100])
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_norm_is_bit_identical_to_the_block_route(self, mode, n, memory, collinear):
        # the name is kept so the case ids stay comparable across commits;
        # the norm matches the block route to COMPACT_RTOL, not to the bit
        rng = np.random.default_rng(17)
        m = build_model(mode, dim=n, memory=memory)
        assert m.operator_norm() == compact_norm_reference(mode, [], n)
        admitted = []
        # past the memory, so pairs are evicted too
        for s, y in curved_pairs(rng, n, memory + 3, collinear):
            if m.update(s, y):
                admitted.append((s, y))
            assert close_to(m.operator_norm(), compact_norm_reference(mode, admitted[-memory:], n))

    def test_lsr1_sheds_oldest_pair_of_singular_window(self):
        # y2 = s2 passes the SR1 test against B built from the first pair; once
        # the first pair is evicted, its column of Psi = Y - S is zero and
        # the full window's M = [[0, 0], [0, -16]] is exactly singular
        m = Lsr1Model(2, memory=2)
        steps = [([1.0, 2.0], [-1.0, 1.0]), ([-2.0, 0.0], [-2.0, 0.0]),
                 ([-2.0, 2.0], [2.0, -2.0])]
        for s, y in steps:
            assert m.update(np.array(s), np.array(y))
        pairs = [(np.array(s), np.array(y)) for s, y in steps[1:]]
        v = np.array([0.3, -1.7])
        assert close_to(m.apply(v), compact_apply_reference("lsr1", pairs[1:], 1.0, v))
        assert close_to(m.operator_norm(), compact_norm_reference("lsr1", pairs, 2))
        # a shed leaves the window whole. With memory 3, the fourth pair is
        # orthogonal to every column of Psi = Y - S: its row of M is zero,
        # every suffix of the window is singular and B = I. After a fifth
        # pair the window is the last three; had the shed dropped pairs, it
        # would be the fifth alone
        m = Lsr1Model(2, memory=3)
        steps = [([2.0, 1.0], [0.0, -1.0]), ([-1.0, -2.0], [-2.0, -2.0]),
                 ([-2.0, 2.0], [1.0, 2.0]), ([0.0, 1.0], [2.0, 1.0]), ([1.0, 0.0], [0.0, 2.0])]
        pairs = [(np.array(s), np.array(y)) for s, y in steps]
        v = np.array([0.3, -1.7])
        for s, y in pairs[:4]:
            assert m.update(s, y)
        assert np.array_equal(m.apply(v), v)
        assert m.update(*pairs[4])
        assert close_to(m.apply(v), compact_apply_reference("lsr1", pairs[2:], 1.0, v))
        assert not close_to(m.apply(v), compact_apply_reference("lsr1", pairs[4:], 1.0, v))

    @pytest.mark.parametrize("n", [4, 9])
    def test_lbfgs_sheds_oldest_pair_of_singular_window(self, monkeypatch, n):
        # the window rule is the pair model's, not L-SR1's alone: when the
        # solve rejects the full window's M, L-BFGS sheds one whole (s, y)
        # pair, two columns of W
        rng = np.random.default_rng(31)
        m = LbfgsModel(n, memory=3)
        pairs = feed_pairs(m, rng, 3)
        assert len(pairs) == 3
        solve = hessians._solve

        def singular_full_window(M, B):
            if M.shape[0] == m._W.shape[1]:
                raise LinAlgError("Singular matrix")
            return solve(M, B)

        monkeypatch.setattr(hessians, "_solve", singular_full_window)
        v = rng.standard_normal(n)
        assert close_to(m.operator_norm(), compact_norm_reference("lbfgs", pairs[1:], n))
        assert close_to(m.apply(v), compact_apply_reference("lbfgs", pairs[1:], 1.0, v))
        assert m._compact()[0].shape == (n, 4)

    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_k_is_c_contiguous(self, mode):
        # K is copied out of the solve's [K | M^{-1} R^T] once per window,
        # so no product copies a strided K; n = 12 is past every width
        rng = np.random.default_rng(37)
        m = build_model(mode, dim=12, memory=5)
        for _ in range(7):
            assert feed_pairs(m, rng, 1)
            W, K, _ = m._compact()
            assert K.shape == (W.shape[1], 12) and K.flags.c_contiguous

    @pytest.mark.parametrize("n,qr_calls", [(4, 0), (9, 1)], ids=["identity", "qr"])
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_both_bases_at_one_memory(self, monkeypatch, mode, n, qr_calls):
        # memory 4: W is 8 wide for L-BFGS and 4 for L-SR1 once the window is
        # full, so n = 4 needs no basis beyond the identity and n = 9 takes
        # one thin QR per accepted pair
        rng = np.random.default_rng(19)
        m = build_model(mode, dim=n, memory=4)
        admitted = feed_pairs(m, rng, 4)
        assert len(admitted) == 4
        m.operator_norm()  # build this window's factors: each QR counted below is a new pair's
        calls = []
        qr_r = hessians._qr_r
        monkeypatch.setattr(hessians, "_qr_r", lambda W: calls.append(W.shape) or qr_r(W))
        for s, y in curved_pairs(rng, n, 3):
            assert m.update(s, y)
            admitted.append((s, y))
            v = rng.standard_normal(n)
            Bv, norm = m.apply(v), m.operator_norm()
            assert len(calls) == qr_calls  # counted before the oracles take their own
            assert close_to(Bv, compact_apply_reference(mode, admitted[-4:], 1.0, v))
            assert close_to(norm, compact_norm_reference(mode, admitted[-4:], n))
            calls.clear()
        dense = float(np.max(np.abs(np.linalg.eigvalsh(dense_matrix(m)))))
        assert abs(m.operator_norm() - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("n", [4, 9])
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_factors_need_no_eigenvectors(self, monkeypatch, mode, n):
        # |B| comes from eigvalsh and products from K = M^{-1} W^T: no
        # eigenvector routine, and a QR that returns R and forms no Q
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        for name in ("eigh_lo", "eigh_up", "eig", "svd", "qr_reduced", "qr_complete"):
            monkeypatch.setattr(_umath_linalg, name, forbidden(name))
        for name in ("eigh", "eig", "svd", "qr"):
            monkeypatch.setattr(np.linalg, name, forbidden(name))
        shapes = []
        qr_r = hessians._qr_r

        def qr_r_checked(W):
            R = qr_r(W)
            assert np.array_equal(R, np.triu(R))
            shapes.append((W.shape, R.shape))
            return R

        monkeypatch.setattr(hessians, "_qr_r", qr_r_checked)
        rng = np.random.default_rng(19)
        m = build_model(mode, dim=n, memory=4)
        v = rng.standard_normal(n)
        for _ in range(6):
            assert feed_pairs(m, rng, 1)
            m.apply(v)
            m.operator_norm()
        assert shapes  # early windows take a QR at n = 4 too
        assert all(R == (W[1], W[1]) for W, R in shapes)  # R alone, width x width

    def test_lsr1_window_with_cond_m_near_1e15(self):
        # the pattern of the singular-window test, with y2 = s2 + (delta, 0):
        # M = [[-2 delta, -2 delta], [-2 delta, -16]], cond(M) near 8 / delta
        delta = 8e-15
        m = Lsr1Model(2, memory=2)
        steps = [([1.0, 2.0], [-1.0, 1.0]), ([-2.0, 0.0], [-2.0 + delta, 0.0]),
                 ([-2.0, 2.0], [2.0, -2.0])]
        for s, y in steps:
            assert m.update(np.array(s), np.array(y))
        window = [(np.array(s), np.array(y)) for s, y in steps[1:]]
        _, M, _ = next(compact_windows("lsr1", window, 1.0))  # the full window
        assert 3e14 < np.linalg.cond(M) < 3e15
        B = dense_matrix(m)
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = rng.standard_normal(2)
            bound = 1e-14 * np.linalg.norm(B) * np.linalg.norm(v)
            assert np.linalg.norm(m.apply(v) - B @ v) <= bound
        dense = float(np.max(np.abs(np.linalg.eigvalsh(B))))
        assert abs(m.operator_norm() - dense) <= 1e-14 * dense

    def test_exact_oracle_on_the_cond_m_near_1e15_window(self):
        # the window above: the model's products are within 1e-14 |B| |v| of
        # the dense B's, and the rational-arithmetic product agrees with them
        delta = 8e-15
        m = Lsr1Model(2, memory=2)
        steps = [([1.0, 2.0], [-1.0, 1.0]), ([-2.0, 0.0], [-2.0 + delta, 0.0]),
                 ([-2.0, 2.0], [2.0, -2.0])]
        for s, y in steps:
            assert m.update(np.array(s), np.array(y))
        window = [(np.array(s), np.array(y)) for s, y in steps[1:]]
        B = dense_matrix(m)
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = rng.standard_normal(2)
            bound = 1e-14 * np.linalg.norm(B) * np.linalg.norm(v)
            Bv = m.apply(v)
            assert np.linalg.norm(Bv - B @ v) <= bound
            assert np.linalg.norm(np.array(compact_apply_exact("lsr1", window, v)) - Bv) <= bound


def outcome(fn, *args):
    """(shape, bytes) of fn's result, or ("LinAlgError", its message)."""
    try:
        out = fn(*args)
    except np.linalg.LinAlgError as err:
        return "LinAlgError", str(err)
    return out.shape, out.tobytes()


def qr_r_numpy(W):
    return np.linalg.qr(W, mode="r")


def eigvalsh_numpy(A):
    return np.linalg.eigvalsh(A, UPLO="L")


def random_windows(rng, width):
    """(W, M) pairs of the given width with n <= width and n > width: a
    trailing block of a wider window, as L-SR1 sheds pairs, and its copy."""
    for n in (max(1, width // 2), width, width + 1, 3 * width + 4):
        W = rng.standard_normal((n, width + 2))
        M = rng.standard_normal((width + 2, width + 2))
        M = M + M.T
        yield W[:, 2:], M[2:, 2:]
        yield W[:, 2:].copy(), M[2:, 2:].copy()


def many_magnitudes(rng, shape):
    """Normal entries at one scale drawn from 1e-60 .. 1e60, each entry
    spread over four more decades around it."""
    scale = 10.0 ** rng.uniform(-60, 60)
    return scale * rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2, shape)


def blas_operands(rng, n, width):
    """(a, b) of every product trfam forms as ``a.dot(b)``, for dimension n
    and window width, laid out as trfam lays them out: 1-d vectors; an
    n x width window W, C-contiguous as ``update`` borders it and a column
    slice as a shed window leaves it, with its K and R from trfam's own
    kernels (K C-contiguous, copied out of ``KR[:, :n]`` when n > width);
    an exact Hessian; and a least-squares problem's ``2 * J.T``, which is
    F-ordered. s'W takes the C-contiguous W alone, its only layout in
    trfam: with a column slice, numpy 2.4.6's dot and @ round differently."""
    v, u = many_magnitudes(rng, n), many_magnitudes(rng, n)
    shed = many_magnitudes(rng, (n, width + 1))[:, 1:]
    bordered = shed.copy()
    M = many_magnitudes(rng, (width, width))
    M = M + M.T
    J = many_magnitudes(rng, (n, n))
    JT2 = 2 * J.T
    assert JT2.flags.f_contiguous
    out = [(v, u), (J, v), (JT2, v), (JT2, J), (v, bordered)]
    for W in (bordered, shed):
        if n > width:
            R = hessians._qr_r(W)
            KR = hessians._solve(M, np.concatenate((W.T, R.T), axis=1))
            K = np.ascontiguousarray(KR[:, :n])
            out.append((R, KR[:, n:]))
        else:
            K = hessians._solve(M, W.T)
            out.append((W, K))
        out += [(K, v), (W, K.dot(v))]
    return out


class TestKernels:
    """``hessians._qr_r``, ``_solve`` and ``_eigvalsh`` call numpy's private
    LAPACK gufuncs directly; they must give np.linalg's results bit for bit
    and raise LinAlgError on exactly the inputs where np.linalg does."""

    @pytest.mark.parametrize("width", range(1, 11))
    def test_bitwise_equal_to_numpy_linalg(self, width):
        rng = np.random.default_rng(width)
        for W, M in random_windows(rng, width):
            if W.shape[0] > width:
                R = outcome(hessians._qr_r, W)
                assert R == outcome(qr_r_numpy, W) and R[0] == (width, width)
                R = qr_r_numpy(W)
                rhs = np.concatenate((W.T, R.T), axis=1)
            else:
                R, rhs = W, W.T
            KR = outcome(hessians._solve, M, rhs)
            assert KR == outcome(np.linalg.solve, M, rhs) and KR[0] == rhs.shape
            RMR = R @ np.linalg.solve(M, R.T)
            lam = outcome(hessians._eigvalsh, RMR)
            assert lam == outcome(eigvalsh_numpy, RMR) and lam[0] == (R.shape[0],)

    def test_singular_m_raises_in_solve(self):
        rhs = np.ones((2, 3))
        for M in (np.zeros((2, 2)), np.array([[0.0, 0.0], [0.0, -16.0]])):
            expected = ("LinAlgError", "Singular matrix")
            assert outcome(hessians._solve, M, rhs) == outcome(np.linalg.solve, M, rhs) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_fail_as_numpy_does(self, bad):
        rng = np.random.default_rng(23)
        W = rng.standard_normal((9, 4))
        M = rng.standard_normal((4, 4))
        M = M + M.T
        W_bad, M_bad = W.copy(), M.copy()
        W_bad[2, 1] = bad
        M_bad[1, 2] = M_bad[2, 1] = bad
        # a non-finite W: its QR and a solve with it return, eigvalsh of its
        # Gram matrix raises
        assert outcome(hessians._qr_r, W_bad) == outcome(qr_r_numpy, W_bad)
        assert outcome(hessians._qr_r, W_bad)[0] == (4, 4)
        gram = W_bad.T @ W_bad
        assert (outcome(hessians._eigvalsh, gram) == outcome(eigvalsh_numpy, gram)
                == ("LinAlgError", "Eigenvalues did not converge"))
        for A, B in ((M, W_bad.T), (M_bad, W.T)):  # a non-finite M raises neither
            assert outcome(hessians._solve, A, B) == outcome(np.linalg.solve, A, B)
            assert outcome(hessians._solve, A, B)[0] == (4, 9)

    @pytest.mark.parametrize("n", [1, 2, 4, 30, 100])
    def test_dot_equals_matmul_bitwise(self, n):
        # trfam forms every product with ndarray.dot, which skips the matmul
        # gufunc's dispatch; both must end in the same BLAS call
        rng = np.random.default_rng(n)
        for width in range(1, 11):
            for _ in range(3):
                for a, b in blas_operands(rng, n, width):
                    assert outcome(a.dot, b) == outcome(np.matmul, a, b), (a.shape, b.shape)


class TestBorderedWindows:
    """Each model keeps W and M and borders them once per admitted pair:
    they equal the compact form rebuilt from the window's pairs."""

    @pytest.mark.parametrize("collinear", [False, True], ids=["random", "collinear"])
    @pytest.mark.parametrize("memory", [1, 3, 5])
    @pytest.mark.parametrize("n", [2, 9, 100])
    @pytest.mark.parametrize("mode", ["lbfgs", "lsr1"])
    def test_stored_factors_match_the_rebuilt_window(self, mode, n, memory, collinear):
        rng = np.random.default_rng(29)
        m = build_model(mode, dim=n, memory=memory)
        admitted = []
        # past the memory, so pairs are evicted too
        for s, y in curved_pairs(rng, n, memory + 3, collinear):
            if m.update(s, y):
                admitted.append((s, y))
            window = admitted[-memory:]
            k = len(window)
            assert m._W.shape == (n, m._width * k) and m._M.shape == (m._width * k,) * 2
            for start, (W, M, _) in enumerate(compact_windows(mode, window, 1.0)):
                if mode == "lbfgs":  # [S, Y] interleaved as [s_1, y_1, s_2, y_2, ...]
                    order = np.arange(2 * k).reshape(2, k).T.ravel()
                    assert np.array_equal(m._W, W[:, order])
                    assert close_to(m._M, M[np.ix_(order, order)])
                    break
                # each suffix that an L-SR1 shed would use is the trailing block
                assert np.array_equal(m._W[:, start:], W)
                assert close_to(m._M[start:, start:], M)


class TestUpdates:
    def test_bfgs_rejects_negative_curvature(self):
        m = LbfgsModel(2)
        assert not m.update(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        v = np.array([0.5, -3.0])
        assert np.array_equal(m.apply(v), v)  # the window is empty: B = I

    def test_bfgs_accepts_positive_curvature(self):
        m = LbfgsModel(2)
        # s'y = 3 >= 1e-8 * 1 * 3
        assert m.update(np.array([1.0, 0.0]), np.array([3.0, 0.0]))

    def test_sr1_rejects_exact_secant(self):
        m = Lsr1Model(2)
        s = np.array([1.0, 2.0])
        assert not m.update(s, m.apply(s))

    @pytest.mark.parametrize("mode", MODEL_KINDS)
    @pytest.mark.parametrize("memory", [0, -5])
    def test_memory_below_one_rejected_for_every_mode(self, mode, memory):
        with pytest.raises(ValueError, match="^memory must be positive$"):
            build_model(mode, get_problem("sphere"), memory=memory)

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
        assert len(pairs) >= 2  # a full window
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
        assert feed_pairs(m, rng, 7, collinear)
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

    @pytest.mark.parametrize("n,sign", [
        (n, sign) for n in range(1, 13) for sign in ("positive", "negative", "indefinite")
        if n > 1 or sign != "indefinite"  # a 1 x 1 matrix is definite or zero
    ])
    def test_exact_end_read_is_the_full_reduction(self, n, sign):
        # |B| read off the two ends of eigvalsh's ascending output equals
        # max |lambda| over the whole spectrum, bit for bit
        rng = np.random.default_rng(n)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3, n) + 1e-3
            if sign == "negative":
                lam = -lam
            elif sign == "indefinite":
                lam[: rng.integers(1, n)] *= -1.0
            h = (q * lam) @ q.T
            h = (h + h.T) / 2
            expected = float(np.max(np.abs(np.linalg.eigvalsh(h))))
            norm = ExactHessian(lambda x, h=h: h, np.zeros(n)).operator_norm()
            assert norm.hex() == expected.hex()

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_exact_zero_matrix_norm_is_plus_zero(self, n):
        norm = ExactHessian(lambda x: np.zeros((n, n)), np.zeros(n)).operator_norm()
        assert norm.hex() == (0.0).hex()
        assert _fmt(norm) == "0"

    def test_exact_model_tracks_iterate(self):
        p = get_problem("sphere")
        m = build_model("exact", p)
        assert m.operator_norm() == pytest.approx(2.0)
        v = np.array([1.0, 1.0])
        assert np.allclose(m.apply(v), 2 * v)

    def test_exact_non_finite_hessian_fails_at_its_source(self):
        # eigvalsh reads [[nan, 0], [0, 1]] as the spectrum [0, -0]
        sphere = replace(get_problem("sphere"),
                         eval_hess=lambda x: np.array([[math.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(SolveError, match="exact Hessian has a non-finite entry"):
            solve(sphere, TrParams(), build_model("exact", sphere), eps=1e-6)

    @pytest.mark.parametrize("hess,shape", [
        (np.ones((3, 2)), r"\(3, 2\)"), (np.ones(2), r"\(2,\)")], ids=["3x2", "1-d"])
    def test_exact_hessian_of_the_wrong_shape_fails_at_its_source(self, hess, shape):
        sphere = replace(get_problem("sphere"), eval_hess=lambda x: hess)
        with pytest.raises(SolveError, match=rf"exact Hessian has shape {shape}, not \(2, 2\)"):
            solve(sphere, TrParams(), build_model("exact", sphere), eps=1e-6)


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
        for k in (1, 7):  # past the script, the last value holds
            m.begin_iteration(k)
            assert np.array_equal(m.apply(v), -5.0 * v)
            assert m.operator_norm() == 5.0
        with pytest.raises(ValueError, match="empty script"):
            ScriptedModel([])

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


def fed_lbfgs_1d() -> LbfgsModel:
    m = LbfgsModel(1)
    assert m.update(np.array([0.5]), np.array([1.5]))
    return m


class TestCurvature1d:
    """``curvature_1d`` is B of a 1-d model as a float, bit for bit the
    product with the unit vector that it replaces."""

    @pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, -1e308, 4.0, math.inf, math.nan])
    def test_scripted_model_returns_its_scalar(self, v):
        m = ScriptedModel([v])
        b = m.curvature_1d()
        assert type(b) is float
        assert bits(b) == bits(float(m.apply(np.ones(1))[0]))

    @pytest.mark.parametrize("make,expected", [
        (lambda: ZeroModel(1), 0.0),
        (lambda: ExactHessian(lambda x: np.array([[2.0 + x[0]]]), np.array([1.5])), 3.5),
        (lambda: LbfgsModel(1), 1.0),  # B0 = I
        (fed_lbfgs_1d, 3.0),  # one pair with y = 3 s
    ], ids=["zero", "exact", "lbfgs-no-pairs", "lbfgs-one-pair"])
    def test_other_models_form_one_product_with_the_unit_vector(self, make, expected):
        m = make()
        assert type(m).curvature_1d is HessianModel.curvature_1d
        calls = []
        apply = m.apply
        m.apply = lambda v: calls.append(v.copy()) or apply(v)
        b = m.curvature_1d()
        assert [c.tolist() for c in calls] == [[1.0]]
        assert type(b) is float
        assert b == pytest.approx(expected, rel=1e-15)
        assert bits(b) == bits(float(apply(np.ones(1))[0]))

    @pytest.mark.parametrize("m", [
        ZeroModel(2), LbfgsModel(2), Lsr1Model(2), ExactHessian(lambda _: np.eye(2), np.zeros(2)),
    ], ids=["zero", "lbfgs", "lsr1", "exact"])
    def test_dimension_other_than_one_rejected(self, m):
        with pytest.raises(ValueError, match="model dim 2"):
            m.curvature_1d()

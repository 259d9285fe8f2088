"""Tests for the worst-case instance generator, interpolant, and verifier."""

import hashlib
import math
from array import array

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from trfam import (
    AdversarialSpec,
    adversarial,
    audit_run,
    build_interpolant,
    check_run_invariants,
    driver,
    generate,
    k_epsilon,
    log_to_csv,
    verify_sharpness,
)
from trfam.adversarial import AdversarialInstance, Interpolant1D, bound_inputs, emit_function_csv

from oracles import StoredCoefficientInterpolant, bits

SWEEP_EPS = (0.9, 0.5, 0.25)
SWEEP_P = (0.0, 0.3, 0.5, 0.9, 1.0)
SWEEP_C = (0.5, 1.0)
# (p, eps, c) of the benchmark's seed-0 worst-case specs, k_eps near 1e4 each
WORST_CASE_SPECS = [(0.0, 0.01, 1.0), (0.5, 0.1, 1.0), (1.0, 0.33, 1.0)]


def lower_bound_reference(interp):
    """The per-segment np.roots loop that lower_bound replaced, on the
    stored coefficients of the oracle over interp's knots."""
    tc = interp.TAIL_CURVATURE
    ref = StoredCoefficientInterpolant(hand_instance(interp._x, interp._f, interp._g))
    f, g, c2, c3 = ref._f, ref._g, ref._c2, ref._c3
    h = np.diff(ref._x)
    best = float(f[0]) if g[0] <= 0 else float(f[0] - g[0] ** 2 / (2 * tc))
    right = float(f[-1]) if g[-1] >= 0 else float(f[-1] - g[-1] ** 2 / (2 * tc))
    best = min(best, right)
    for i in range(len(h)):
        best = min(best, float(f[i]), float(f[i + 1]))
        a, b, c = 3.0 * c3[i], 2.0 * c2[i], h[i] * g[i]
        for t in np.roots([a, b, c]) if a != 0 or b != 0 else []:
            if np.isreal(t) and 0.0 < t.real < 1.0:
                tr = float(t.real)
                best = min(best, float(f[i] + tr * (h[i] * g[i] + tr * (c2[i] + tr * c3[i]))))
    return best


def generate_reference(spec):
    """(knots_x, f_vals) from the plain Python loops generate used before
    np.add.accumulate: each sum formed in order from the previous one."""
    keps = k_epsilon(spec)
    ks = np.arange(keps + 1, dtype=float)
    g = -spec.eps * (1.0 + (keps - ks) / keps)
    B = np.empty(keps + 1)
    B[0] = 1.0
    B[1:] = ks[1:] ** spec.p
    s = -(g[:-1] / B[:-1])
    x = np.empty(keps + 1)
    x[0] = 0.0
    for k in range(keps):
        x[k + 1] = x[k] + s[k]
    f = np.empty(keps + 1)
    f[0] = 8.0 * spec.eps**2 + (4.0 * spec.c if spec.p == 1.0 else 4.0 / (1.0 - spec.p))
    for k in range(keps):
        f[k + 1] = f[k] + g[k] * s[k]
    return x, f


def hand_instance(x, f, g):
    """An instance over arbitrary knot data, for the interpolant (which
    reads only x, f and g)."""
    x, f, g = (np.asarray(v, dtype=float) for v in (x, f, g))
    return AdversarialInstance(
        k_eps=x.size - 1, knots_x=x, f_vals=f, g_vals=g, B_vals=np.ones_like(x),
        delta0=1.0, kappa_f=2.0, spec=AdversarialSpec(0.5, 0.0),
    )


def steps(inst):
    """The unit-model Newton steps s_k = -g_k / B_k, as generate forms them."""
    return -(inst.g_vals[:-1] / inst.B_vals[:-1])


def hand_interpolant(x, f, g):
    return Interpolant1D(hand_instance(x, f, g))


def sweep_specs(cap=10**6):
    """All in-cap sweep combinations; over-cap counts are the construction's
    whole point and are exercised separately through the cap error."""
    out = []
    for eps in SWEEP_EPS:
        for p in SWEEP_P:
            for c in SWEEP_C:
                if p != 1.0 and c != 1.0:
                    continue  # c only matters at p = 1
                spec = AdversarialSpec(eps, p, c)
                try:
                    if k_epsilon(spec) <= cap:
                        out.append(spec)
                except ValueError:
                    continue
    return out


class TestKEpsilon:
    def test_p0(self):
        assert k_epsilon(AdversarialSpec(0.5, 0.0)) == 4

    def test_p_half(self):
        assert k_epsilon(AdversarialSpec(0.5, 0.5)) == 16

    def test_p1(self):
        # floor(exp(4)) computed numerically
        assert k_epsilon(AdversarialSpec(0.5, 1.0, c=1.0)) == math.floor(math.exp(4.0))
        assert k_epsilon(AdversarialSpec(0.5, 1.0, c=1.0)) == 54

    def test_cap_error(self):
        with pytest.raises(ValueError, match="cap"):
            k_epsilon(AdversarialSpec(0.01, 0.9))
        with pytest.raises(ValueError, match="cap"):
            k_epsilon(AdversarialSpec(0.05, 1.0, c=1.0))

    def test_cap_is_checked_in_the_log_domain(self):
        # eps^(-2/(1-p)) = 0.9^-2e6 overflows a float; before the log-domain
        # check this was an OverflowError
        with pytest.raises(ValueError, match="exceeds the cap"):
            k_epsilon(AdversarialSpec(0.9, 0.999999))

    def test_log_domain_check_keeps_every_accepted_value(self):
        # at p = 0.5 around the cap of 1e8: 0.01^-4 rounds to just under it
        # and the exact test accepts its floor; 0.008^-4 lies in (1e8, e 1e8],
        # inside the log-domain margin, and the exact test rejects it;
        # 0.005^-4 lies past e 1e8 and the log-domain check rejects it
        cap = adversarial.K_EPS_CAP
        assert cap - 1 < 0.01**-4.0 < cap
        assert k_epsilon(AdversarialSpec(0.01, 0.5)) == math.floor(0.01**-4.0) == cap - 1
        assert cap < 0.008**-4.0 <= math.e * cap
        with pytest.raises(ValueError, match=r"^k_eps = 2\.44e\+08 exceeds the cap 1e\+08"):
            k_epsilon(AdversarialSpec(0.008, 0.5))
        assert 0.005**-4.0 > math.e * cap
        with pytest.raises(ValueError, match=r"^k_eps = exp\(21\.2\) exceeds the cap 1e\+08"):
            k_epsilon(AdversarialSpec(0.005, 0.5))

    def test_p1_eps_whose_inverse_square_overflows_is_over_the_cap(self):
        with pytest.raises(ValueError, match=r"k_eps = exp\(inf\) exceeds the cap"):
            k_epsilon(AdversarialSpec(1e-300, 1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AdversarialSpec(1.5, 0.0)
        with pytest.raises(ValueError):
            AdversarialSpec(0.5, 2.0)
        with pytest.raises(ValueError):
            AdversarialSpec(0.5, 1.0, c=0.0)
        for alpha, beta in ((1.5, 0.0), (math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="need alpha <= 1 and beta <= 1"):
                AdversarialSpec(0.5, 0.0, alpha=alpha, beta=beta)
        with pytest.raises(ValueError, match="alpha must be finite"):
            AdversarialSpec(0.5, 0.0, alpha=-math.inf)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_infinite_c_rejected(self, p):
        # c is unused for p < 1, but the verifier's report prints it
        with pytest.raises(ValueError, match="c must be finite"):
            AdversarialSpec(0.5, p, c=math.inf)

    @pytest.mark.parametrize("alpha", [-2000.0, -1e300, -1022.0])
    def test_alpha_whose_delta0_overflows_rejected(self, alpha):
        with pytest.raises(ValueError, match="need alpha > -1022, or delta0"):
            AdversarialSpec(0.5, 0.0, alpha=alpha)

    def test_alpha_just_above_the_overflow_keeps_delta0_finite(self):
        alpha = math.nextafter(-1022.0, 0.0)
        assert generate(AdversarialSpec(0.5, 0.0, alpha=alpha)).delta0 == 2.0 ** (2.0 - alpha)


class TestGenerate:
    def test_p0_hand_values(self):
        inst = generate(AdversarialSpec(0.5, 0.0))
        assert inst.f_vals[0] == 6.0  # 8 eps^2 + 4/(1-p)
        assert inst.g_vals[0] == -1.0
        assert inst.B_vals[0] == 1.0
        assert steps(inst)[0] == 1.0
        assert inst.f_vals[1] == 5.0  # f0 - f1 = -g0 s0 = 4 eps^2
        assert inst.knots_x[0] == 0.0

    def test_p1_hand_values(self):
        inst = generate(AdversarialSpec(0.5, 1.0, c=1.0))
        assert inst.f_vals[0] == 6.0  # 8 eps^2 + 4c
        assert inst.k_eps == 54
        assert inst.g_vals[-1] == -0.5
        assert inst.delta0 == 2.0 ** 2

    def test_delta0_tracks_alpha(self):
        inst = generate(AdversarialSpec(0.5, 0.0, alpha=1.0, beta=1.0))
        assert inst.delta0 == 2.0

    @pytest.mark.parametrize(
        "spec",
        [AdversarialSpec(0.5, 0.0), AdversarialSpec(0.01, 0.0), AdversarialSpec(0.1, 0.5),
         AdversarialSpec(0.33, 1.0), AdversarialSpec(0.5, 1.0, c=0.5)],
        ids=lambda s: f"e{s.eps}_p{s.p}_c{s.c}",
    )
    def test_accumulation_matches_the_loops_bit_for_bit(self, spec):
        inst = generate(spec)
        x, f = generate_reference(spec)
        assert inst.knots_x.tobytes() == x.tobytes()
        assert inst.f_vals.tobytes() == f.tobytes()

    @pytest.mark.parametrize("spec", sweep_specs(), ids=lambda s: f"e{s.eps}_p{s.p}_c{s.c}")
    def test_sequence_invariants(self, spec):
        inst = generate(spec)
        # decreasing f inside [0, f0]
        assert np.all(np.diff(inst.f_vals) < 0)
        assert np.all(inst.f_vals >= 0.0)
        assert np.all(inst.f_vals <= inst.f_vals[0])
        # knots strictly increasing, steps positive
        assert np.all(np.diff(inst.knots_x) > 0)
        assert np.all(steps(inst) > 0)
        # gradient magnitudes: above eps until the last knot, eps at it
        gabs = np.abs(inst.g_vals)
        assert np.all(gabs[:-1] > spec.eps)
        assert gabs[-1] == spec.eps
        # recurrence holds exactly as stored
        lhs = inst.f_vals[1:]
        rhs = inst.f_vals[:-1] + inst.g_vals[:-1] * steps(inst)
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("spec", sweep_specs(), ids=lambda s: f"e{s.eps}_p{s.p}_c{s.c}")
    def test_hermite_hypotheses(self, spec):
        inst = generate(spec)
        kf = inst.kappa_f
        s = steps(inst)
        assert kf == max(inst.f_vals[0], 2.0)
        # |f_{k+1} - (f_k + g_k s_k)| = 0 <= kf s_k^2 by the exact recurrence
        gaps = np.abs(inst.g_vals[1:] - inst.g_vals[:-1])
        # |g_{k+1} - g_k| <= |s_k| for k >= 1; the k = 0 link directly
        assert np.all(gaps[1:] <= np.abs(s[1:]) * (1 + 1e-15))
        assert gaps[0] <= abs(s[0]) * (1 + 1e-15)
        assert np.all(np.abs(inst.f_vals) <= kf)
        assert np.all(np.abs(inst.g_vals) <= kf)
        assert np.all(np.abs(s) <= kf)


class TestInterpolant:
    def test_reproduces_knot_data(self):
        # the stored bits at every knot: walked in order, each knot is the
        # cursor's; in reverse on a fresh interpolant, the two end knots take
        # the end-knot branch and every other knot is found by bisection
        inst = generate(AdversarialSpec(0.5, 0.5))
        knots = list(zip(inst.knots_x, inst.f_vals, inst.g_vals))
        for interp, order in ((build_interpolant(inst), knots),
                              (build_interpolant(inst), knots[::-1])):
            for xk, fk, gk in order:
                assert [bits(v) for v in interp(xk)] == [bits(fk), bits(gk)], xk

    def test_every_knot_returns_its_stored_bits(self):
        # a -0.0 value at knot 1, whose rising cubic gives +0.0 at t = 0, and
        # a segment 2 whose c2 overflows, which turns the cubic at knot 2
        # into NaN; as does segment 3 at knot 3
        x, f, g = [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, -0.0, 1.0, 1e308, 1.0], [-1.0, 1.0, 1.0, 1.0, 1.0]
        inst = hand_instance(x, f, g)
        order = [0, 1, 2, 3, 4, 4, 2, 0, 3, 1, 1, 0, 4]
        interp, fresh = Interpolant1D(inst), [Interpolant1D(inst) for _ in order]
        for j in (2, 3):
            c2, _ = adversarial._cubic(x[j + 1] - x[j], f[j + 1] - f[j], g[j], g[j + 1])
            assert math.isinf(c2)
        for k, first in zip(order, fresh):  # one interpolant through the order, and a fresh one
            want = [bits(f[k]), bits(g[k])]
            assert [bits(v) for v in interp(x[k])] == want, k
            assert [bits(v) for v in first(x[k])] == want, k

    def test_midpoint_against_hermite_oracle(self):
        # first segment of the p = 0, eps = 0.5 instance: data (6, -1), (5, -0.875), h = 1
        inst = generate(AdversarialSpec(0.5, 0.0))
        interp = build_interpolant(inst)
        oracle = CubicHermiteSpline(inst.knots_x, inst.f_vals, inst.g_vals)
        xm = inst.knots_x[0] + 0.5
        val, slope = interp(xm)
        assert val == pytest.approx(5.484375, abs=1e-12)  # hand-evaluated cubic
        assert val == pytest.approx(float(oracle(xm)), abs=1e-12)
        assert slope == pytest.approx(float(oracle.derivative()(xm)), abs=1e-12)

    def test_matches_oracle_on_grid(self):
        inst = generate(AdversarialSpec(0.5, 1.0, c=1.0))
        interp = build_interpolant(inst)
        oracle = CubicHermiteSpline(inst.knots_x, inst.f_vals, inst.g_vals)
        xs = np.linspace(inst.knots_x[0], inst.knots_x[-1], 500)
        ours = np.array([interp(x)[0] for x in xs])
        assert np.allclose(ours, oracle(xs), atol=1e-10)

    def test_call_order_does_not_change_a_bit(self):
        # one interpolant evaluated in shuffled order against a fresh one per
        # point: every knot, segment interiors, both tails and repeats
        inst = generate(AdversarialSpec(0.3, 0.5))
        x = inst.knots_x
        mid = x[:-1] + np.diff(x) * np.random.default_rng(2).uniform(0.0, 1.0, len(x) - 1)
        tails = [x[0] - 1.0, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + 2.0]
        points = [*x, *mid, *tails, *x[::7], *mid[::5]]
        np.random.default_rng(3).shuffle(points)
        interp = build_interpolant(inst)
        for p in points:
            got, want = interp(p), build_interpolant(inst)(p)
            assert [bits(v) for v in got] == [bits(v) for v in want], p

    def test_nan_point_gives_nan(self):
        # as the first call, and after a call has moved the segment cursor
        inst = generate(AdversarialSpec(0.5, 0.5))
        interp = build_interpolant(inst)
        for xq in (math.nan, inst.knots_x[2], math.nan):
            val, slope = interp(xq)
            assert math.isnan(val) == math.isnan(slope) == math.isnan(xq)

    def test_tail_curvature_is_one(self):
        inst = generate(AdversarialSpec(0.5, 0.0))
        interp = build_interpolant(inst)
        xN = inst.knots_x[-1]
        # f' is linear with unit slope on the tails
        for a in (0.25, 1.0, 3.0):
            assert interp(xN + a)[1] == pytest.approx(inst.g_vals[-1] + a, rel=1e-15)
            assert interp(inst.knots_x[0] - a)[1] == pytest.approx(
                inst.g_vals[0] - a, rel=1e-15
            )

    def test_c1_at_junctions(self):
        inst = generate(AdversarialSpec(0.5, 0.5))
        interp = build_interpolant(inst)
        d = 1e-8
        for xk in list(inst.knots_x):
            fl, gl = interp(xk - d)
            fr, gr = interp(xk + d)
            assert abs(fl - fr) <= 1e-7
            assert abs(gl - gr) <= 1e-6

    def test_lipschitz_scan_finite(self):
        inst = generate(AdversarialSpec(0.5, 0.5))
        interp = build_interpolant(inst)
        xs = np.linspace(inst.knots_x[0] - 1.0, inst.knots_x[-1] + 1.0, 10**5)
        slopes = np.array([interp(x)[1] for x in xs])
        scan = np.max(np.abs(np.diff(slopes) / np.diff(xs)))
        assert np.isfinite(scan)
        # the scan can only see less than the exact per-segment bound
        assert scan <= interp.second_derivative_bound() * (1 + 1e-6)

    def test_lower_bound_is_global(self):
        inst = generate(AdversarialSpec(0.5, 0.5))
        interp = build_interpolant(inst)
        low = interp.lower_bound()
        xs = np.linspace(inst.knots_x[0] - 5.0, inst.knots_x[-1] + 5.0, 10**5)
        vals = np.array([interp(x)[0] for x in xs])
        assert np.min(vals) >= low - 1e-12
        # the right-tail vertex attains it
        assert low == pytest.approx(inst.f_vals[-1] - 0.5 * inst.g_vals[-1] ** 2)

    def test_holds_only_its_knots(self):
        # x, f and g as array('d'), 24 B per knot; no per-segment arrays
        inst = generate(AdversarialSpec(0.5, 0.5))
        held = [v for v in vars(Interpolant1D(inst)).values() if isinstance(v, (array, np.ndarray))]
        assert [(type(v), v.itemsize, len(v)) for v in held] == [(array, 8, len(inst.knots_x))] * 3


class TestStoredCoefficientOracle:
    """Forming each cubic where it is read gives the bytes the stored
    coefficients gave: point values and both bounds."""

    SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324)

    @staticmethod
    def assert_byte_equal(inst, rng):
        x = np.asarray(inst.knots_x)
        with np.errstate(all="ignore"):  # the special instances overflow and divide by 0
            mid = x[:-1] + np.diff(x) * rng.uniform(0.0, 1.0, len(x) - 1)
            tails = [x[0] - 1.0, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + 2.0, math.nan]
            points = [*x, *mid, *tails]
            rng.shuffle(points)
            ours, ref = Interpolant1D(inst), StoredCoefficientInterpolant(inst)
            for p in [*x, *points]:  # the knots in order, then shuffled with the rest
                assert [bits(v) for v in ours(p)] == [bits(v) for v in ref(p)], p
            for bound in ("lower_bound", "second_derivative_bound"):
                assert bits(getattr(ours, bound)()) == bits(getattr(ref, bound)()), bound

    @pytest.mark.parametrize("p,eps,c", WORST_CASE_SPECS)
    def test_worst_case_instances(self, p, eps, c):
        self.assert_byte_equal(generate(AdversarialSpec(eps, p, c)), np.random.default_rng(5))

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_instances_with_special_values(self, seed):
        # knots, values and slopes drawn from finite values and the specials;
        # half of the instances with sorted knots, half in any order
        rng = np.random.default_rng(seed)
        for _ in range(75):
            n = int(rng.integers(2, 9))
            x, f, g = (np.where(rng.random(n) < 0.3, rng.choice(self.SPECIALS, n),
                                rng.standard_normal(n)) for _ in range(3))
            if rng.random() < 0.5:
                x = np.sort(x)
            self.assert_byte_equal(hand_instance(x, f, g), rng)


class CountingInterpolant(Interpolant1D):
    def __init__(self, inst):
        super().__init__(inst)
        self.calls = 0

    def __call__(self, xq):
        self.calls += 1
        return super().__call__(xq)


class TestAsProblem:
    def interpolant(self):
        # a knot at 0 with f = -0.0 there: f(+0.0) and f(-0.0) both read it
        inst = hand_instance([-1.0, 0.0, 2.0], [1.0, -0.0, 3.0], [-1.0, 1.0, 2.0])
        return CountingInterpolant(inst)

    def test_memo_matches_direct_evaluation(self):
        interp = self.interpolant()
        problem = interp.as_problem()
        a, b = 0.5, 1.25
        sequence = [("f", a), ("g", a), ("f", b), ("g", a), ("f", 0.0), ("f", -0.0),
                    ("g", -0.0), ("g", 0.0), ("f", -0.0), ("g", b), ("g", b), ("f", b)]
        for which, x in sequence:
            xa = np.array([x])
            got = problem.eval_f(xa) if which == "f" else problem.eval_grad(xa)[0]
            want = interp(x)[0 if which == "f" else 1]
            assert got == want, (which, x)
            assert bits(got) == bits(want), (which, x)
        assert bits(interp(0.0)[0]) == bits(interp(-0.0)[0]) == bits(-0.0)

    def test_gradient_after_f_at_the_same_point_reuses_it(self):
        interp = self.interpolant()
        problem = interp.as_problem()
        interp.calls = 0
        problem.eval_f(np.array([0.5]))
        problem.eval_grad(np.array([0.5]))
        assert interp.calls == 1
        problem.eval_grad(np.array([1.5]))
        problem.eval_f(np.array([0.5]))
        assert interp.calls == 3

    def test_builds_no_lower_bound_and_no_hessian(self, monkeypatch):
        def unused(self):
            raise AssertionError("as_problem must not compute the lower bound")

        monkeypatch.setattr(Interpolant1D, "lower_bound", unused)
        problem = self.interpolant().as_problem()
        assert problem.eval_hess is None
        assert problem.f_low_hint is None


class TestLowerBound:
    @pytest.mark.parametrize("p,eps,c", WORST_CASE_SPECS)
    def test_equals_root_loop_on_worst_case_instances(self, p, eps, c):
        interp = build_interpolant(generate(AdversarialSpec(eps, p, c)))
        assert interp.lower_bound() == lower_bound_reference(interp)

    @staticmethod
    def wavy_interpolant(seed):
        # slopes that change sign (a share of them exactly zero) put
        # minima inside segments. The offset keeps the bound larger than
        # the Horner terms: where it is their cancellation, both root forms
        # carry the same larger rounding error, as 50-digit arithmetic shows
        rng = np.random.default_rng(seed)
        n = 200
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        f = 10.0 + 0.3 * rng.standard_normal(n)
        g = 3.0 * rng.standard_normal(n)
        g[rng.random(n) < 0.2] = 0.0
        return hand_interpolant(x, f, g), f

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_root_loop_with_interior_minima(self, seed):
        interp, f = self.wavy_interpolant(seed)
        low, ref = interp.lower_bound(), lower_bound_reference(interp)
        assert low == pytest.approx(ref, rel=1e-15, abs=0.0)
        assert low < f.min()  # an interior minimum decides the bound

    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_find_the_whole_array_minimum(self, seed, monkeypatch):
        interp, _ = self.wavy_interpolant(seed)
        whole = interp.lower_bound()  # 199 segments: one default block
        monkeypatch.setattr(Interpolant1D, "BLOCK", 7)  # 28 blocks of 7 and one of 3
        assert bits(interp.lower_bound()) == bits(whole)

    def test_interior_minimum_of_one_segment(self):
        # f = (x - 1/2)^2 on [0, 1] needs no cubic term: a = 0, a linear root
        interp = hand_interpolant([0.0, 1.0], [0.25, 0.25], [-1.0, 1.0])
        assert interp.lower_bound() == 0.0 == lower_bound_reference(interp)

    def test_zero_slopes_at_both_knots(self):
        # h g0 = 0 and the other root t = 1 lies on the knot: no interior point
        interp = hand_interpolant([0.0, 1.0, 2.0], [1.0, 0.5, 2.0], [0.0, 0.0, 0.0])
        assert interp.lower_bound() == 0.5 == lower_bound_reference(interp)

    def test_monotone_segments_leave_the_tails(self):
        interp = hand_interpolant([0.0, 1.0, 3.0], [5.0, 4.0, 1.0], [-1.0, -0.5, -2.0])
        assert interp.lower_bound() == 1.0 - 2.0 == lower_bound_reference(interp)


class TestVerifySharpness:
    def test_p0_classical(self):
        sharp, report = verify_sharpness(AdversarialSpec(0.5, 0.0))
        assert sharp.passed
        assert sharp.iterations == 4
        assert sharp.all_very_successful
        assert sharp.max_rho_error <= 1e-9
        assert sharp.strictly_inside
        assert sharp.final_grad_error <= 1e-12

    def test_p1_alpha_beta_one(self):
        sharp, _ = verify_sharpness(AdversarialSpec(0.5, 1.0, 1.0, 1.0, 1.0))
        assert sharp.passed
        assert sharp.iterations == 54

    def test_p_half_alpha_one(self):
        sharp, _ = verify_sharpness(AdversarialSpec(0.5, 0.5, 1.0, 1.0, 0.0))
        assert sharp.passed
        assert sharp.iterations == 16

    # SHA-256 of log_to_csv. These replays use only scalar IEEE arithmetic,
    # so the digests hold on any platform.
    @pytest.mark.parametrize(
        "spec,digest",
        [
            (AdversarialSpec(0.1, 0.0),
             "069a22221073832e1f9e9cd7691f6cbed2d7d9fc9fb624f75727d316bbebdb79"),
            (AdversarialSpec(0.3, 0.5),
             "51966b1c5fdcd0859b4c21e3893fe708c9fcc29ddcc3ceb3514768116c8bc04b"),
            (AdversarialSpec(0.5, 1.0, 1.0),
             "7317bf4c4f1b75e6fb354de31c7df313637ff4620c82594bd817bea8aa2d6419"),
            # Delta reaches the clip at _DELTA_MAX from k = 497 on
            (AdversarialSpec(0.03, 0.0),
             "fbcfa4b1baab0c4a6dc804750be3af53ab27c59c705cb2fdfedbab20b7b29562"),
            # k_eps = 1000
            (AdversarialSpec(10**-1.5, 0.0),
             "3066b9c45d920e5de252e0a727ad172effa9d3a60836778c9be24a6c44a41025"),
        ],
    )
    def test_log_digest_pinned(self, spec, digest):
        sharp, report = verify_sharpness(spec)
        assert sharp.passed
        assert sharp.iterations == len(report.log) == sharp.k_eps
        assert hashlib.sha256(log_to_csv(report).encode()).hexdigest() == digest

    @staticmethod
    def edit_instances(monkeypatch, edit):
        """Make verify_sharpness replay instances that ``edit`` changes in place."""
        original = adversarial.generate

        def edited(spec):
            inst = original(spec)
            edit(inst)
            return inst

        monkeypatch.setattr(adversarial, "generate", edited)

    def move_stored_f(self, monkeypatch, j, by):
        """Make verify_sharpness replay instances whose f_j is moved."""

        def move(inst):
            inst.f_vals[j] += by

        self.edit_instances(monkeypatch, move)

    def test_moved_f_value_is_a_rho_mismatch(self, monkeypatch):
        # f_50 enters rho at k = 49 (as f_k+1) and at k = 50 (as f_k), which
        # it moves by about 1e-7 / m_k ~ 1e-5, far past the tolerance
        self.move_stored_f(monkeypatch, 50, 1e-7)
        sharp, _ = verify_sharpness(AdversarialSpec(0.1, 0.0))
        assert [(m["check"], m["k"]) for m in sharp.mismatches] == [("rho", 49), ("rho", 50)]
        assert sharp.iterations == sharp.k_eps == 99

    def test_rho_tolerance_scales_with_f_over_the_model_decrease(self, monkeypatch):
        # with u = 1e-7 the rounding allowance 2 u |f_k| / m_k is at least
        # 3.5e-7 / m_k here, above the moved f's 1e-7 / m_k
        self.move_stored_f(monkeypatch, 50, 1e-7)
        monkeypatch.setattr(adversarial, "ROUNDING_U", 1e-7)
        assert verify_sharpness(AdversarialSpec(0.1, 0.0))[0].passed

    def test_miscounted_instance_is_an_iteration_count_mismatch(self, monkeypatch):
        def miscount(inst):
            inst.k_eps += 1

        self.edit_instances(monkeypatch, miscount)
        sharp, _ = verify_sharpness(AdversarialSpec(0.1, 0.0))
        assert sharp.mismatches == [{"check": "iteration_count", "expected": 100, "observed": 99}]

    def test_step_past_the_radius_is_a_step_inside_mismatch(self, monkeypatch):
        # from delta0 = 1/32 the radius 2^(k-5) is below the Newton steps,
        # about 0.2, at k = 0, 1, 2; a step solver that ignores the radius
        # still walks the knots, with rho = 2
        def shrink(inst):
            inst.delta0 = 2.0**-5

        self.edit_instances(monkeypatch, shrink)
        newton = driver.newton_step_1d
        monkeypatch.setattr(driver, "newton_step_1d", lambda g, B, radius: newton(g, B, math.inf))
        sharp, report = verify_sharpness(AdversarialSpec(0.1, 0.0))
        assert [(m["check"], m["k"]) for m in sharp.mismatches] == [
            ("step_inside", 0), ("step_inside", 1), ("step_inside", 2)]
        assert sharp.mismatches[0] == {"check": "step_inside", "k": 0, "snorm": 0.2,
                                       "radius": 2.0**-5}
        assert sharp.iterations == sharp.k_eps and not sharp.steps_inside

    def test_nan_curvature_is_a_report_with_mismatches(self, monkeypatch):
        # with beta != 0 a NaN B_3 makes the radius and the step at k = 3
        # NaN; the interpolant gives NaN there, so the step is rejected.
        # The script moves only on an accepted step, so B stays NaN and
        # every later step is rejected too: the replay runs to max_iter
        # instead of raising
        def spoil_curvature(inst):
            inst.B_vals[3] = math.nan

        self.edit_instances(monkeypatch, spoil_curvature)
        sharp, report = verify_sharpness(AdversarialSpec(0.1, 0.0, beta=1.0))
        assert report.status == "max_iter" and sharp.iterations == sharp.k_eps + 10 == 109
        assert [(m["check"], m.get("k")) for m in sharp.mismatches] == [
            ("iteration_count", None),
            *((check, k) for k in range(3, 109) for check in ("rho", "step_inside")),
            ("final_gradient", None)]

    def test_final_gradient_off_eps_is_a_final_gradient_mismatch(self, monkeypatch):
        # |g| at the last knot just below eps: the run still stops there
        def shrink_last_slope(inst):
            inst.g_vals[-1] *= 1.0 - 1e-6

        self.edit_instances(monkeypatch, shrink_last_slope)
        sharp, report = verify_sharpness(AdversarialSpec(0.1, 0.0))
        assert sharp.mismatches == [
            {"check": "final_gradient", "expected": 0.1, "observed": report.final_gnorm}]
        assert report.final_gnorm == 0.1 * (1.0 - 1e-6)
        assert sharp.iterations == sharp.k_eps

    @pytest.mark.parametrize("eps", [0.03, 0.01])
    def test_long_very_successful_streak_keeps_the_log_finite(self, eps):
        # Delta doubles on each of k_eps very successful steps: without the
        # clip at _DELTA_MAX it passes the float range near k = 1022
        spec = AdversarialSpec(eps, 0.0)
        sharp, report = verify_sharpness(spec)
        assert sharp.passed
        for name in driver.IterationLog.__slots__:
            assert np.isfinite(report.log.column(name)).all(), name
        assert max(report.log.delta) == max(report.log.eff_radius) == driver._DELTA_MAX
        inputs = bound_inputs(sharp, report)
        assert check_run_invariants(report, inputs.params, inputs.L) == []


class TestBoundInputs:
    def test_replay_and_both_audits_generate_once(self, monkeypatch):
        calls = []
        generate_ = adversarial.generate
        monkeypatch.setattr(adversarial, "generate",
                            lambda *a, **k: calls.append(a) or generate_(*a, **k))
        sharp, report = verify_sharpness(AdversarialSpec(0.5, 1.0))
        inputs = bound_inputs(sharp, report)
        for assumption in ("successful_counter", "iteration_counter"):
            assert audit_run(report, inputs, assumption).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", sweep_specs(), ids=lambda s: f"e{s.eps}_p{s.p}_c{s.c}")
    def test_report_carries_a_fresh_interpolants_bounds(self, spec):
        sharp, _ = verify_sharpness(spec)
        fresh = Interpolant1D(generate(spec))
        assert bits(sharp.f_low) == bits(fresh.lower_bound())
        assert bits(sharp.lipschitz) == bits(fresh.second_derivative_bound())

    def test_blocks_give_the_whole_array_bounds(self, monkeypatch):
        spec = AdversarialSpec(0.33, 1.0)  # k_eps 9,727: one default block
        assert k_epsilon(spec) <= Interpolant1D.BLOCK
        fresh = Interpolant1D(generate(spec))
        whole = [fresh.lower_bound(), fresh.second_derivative_bound()]
        # 32 blocks of 300 segments and a ragged last one of 127
        monkeypatch.setattr(Interpolant1D, "BLOCK", 300)
        sharp, _ = verify_sharpness(spec)
        assert list(map(bits, (sharp.f_low, sharp.lipschitz))) == list(map(bits, whole))


def test_decrease_monitors_hold_with_exact_lipschitz():
    # on generated instances L is exact, so the per-iteration decrease and
    # a_k floors are assertions, not diagnostics
    for spec in (AdversarialSpec(0.5, 0.0), AdversarialSpec(0.5, 1.0, 1.0, 1.0, 1.0)):
        sharp, report = verify_sharpness(spec)
        inputs = bound_inputs(sharp, report)
        assert check_run_invariants(report, inputs.params, inputs.L) == []


def test_emit_function_csv(tmp_path):
    inst = generate(AdversarialSpec(0.5, 0.0))
    interp = build_interpolant(inst)
    out = tmp_path / "fn.csv"
    emit_function_csv(interp, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,f,fprime"
    assert len(lines) == 2002
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == pytest.approx(inst.knots_x[0] - 1.0)
    assert last[0] == pytest.approx(inst.knots_x[-1] + 1.0)

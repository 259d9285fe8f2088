"""Tests for the complexity-bound calculators and the run audit."""

import math
from dataclasses import fields

import numpy as np
import pytest

from trfam import (
    AdversarialSpec,
    BoundInputs,
    IterationLog,
    TrParams,
    audit_run,
    bound_successful,
    bound_total_k,
    bound_unsuccessful,
    bounds,
    choose_tau,
    get_problem,
    kappa1,
    measure_envelope,
    solve,
    verify_sharpness,
    xi_beta,
)
from trfam.adversarial import bound_inputs
from trfam.bounds import classical_reference_rows
from trfam.driver import STATUSES
from trfam.hessians import build_model


FAMILY = {f.name for f in fields(TrParams)}


def inputs(**kw):
    """BoundInputs with these defaults; TrParams fields go to its params."""
    base = dict(f0=1.0, f_low=0.0, a_min=0.03125, mu=1.0, p=0.0, eps=0.1)
    family = {k: kw.pop(k) for k in set(kw) & FAMILY}
    base.update(kw)
    return BoundInputs(TrParams(**family), **base)


def envelope_log(bnorms):
    """A log of very successful iterations, so n_succ is 1, 2, ..."""
    log = IterationLog()
    for bnorm in bnorms:
        log.append(f=0.0, gnorm=1.0, delta=1.0, eff_radius=1.0, rho=2.0,
                   status=STATUSES.index("very_successful"), bnorm=bnorm, a_k=1.0,
                   cg_iters=1, model_decrease=math.nan, snorm=math.nan)
    return log


# The five out-of-family constant sets BoundInputs used to accept.
OUT_OF_FAMILY = [
    {"kappa_mdc": 5.0},
    {"eta1": 0.9, "eta2": 0.1},
    {"gamma1": 0.9, "gamma2": 0.5},
    {"alpha": 3.0},
    {"gamma2": 0.5, "gamma4": 0.5},
]


class TestFamilyConstants:
    @pytest.mark.parametrize("bad", OUT_OF_FAMILY, ids=lambda d: ",".join(d))
    def test_out_of_family_constants_rejected(self, bad):
        # the constants reach the bounds only through TrParams, which
        # enforces the family's orderings
        assert not set(bad) & {f.name for f in fields(BoundInputs)}
        with pytest.raises(ValueError):
            inputs(**bad)

    def test_calculators_read_the_params(self):
        inp = inputs(eta1=0.2, kappa_mdc=0.25, delta0=2.0, alpha=1.0)
        assert inp.params == TrParams(eta1=0.2, kappa_mdc=0.25, delta0=2.0, alpha=1.0)
        assert kappa1(inp) == pytest.approx(1.0 / (0.2 * 0.25 * 0.03125))
        tb = bound_total_k(inp)
        assert tb.kappa2 == pytest.approx(3.0 / (0.2 * 0.25 * 0.03125))
        assert tb.kappa3 == pytest.approx(2.0 * tb.xi / 0.03125)


class TestKappa1:
    def test_hand_value(self):
        # 1 / (0.1 * 0.5 * 0.03125) = 640
        assert kappa1(inputs()) == pytest.approx(640.0)

    def test_zero_gap(self):
        assert kappa1(inputs(f0=0.0, f_low=0.0)) == 0.0

    def test_homogeneity_in_a_min(self):
        assert kappa1(inputs(a_min=0.0625)) == pytest.approx(320.0)


class TestBoundSuccessful:
    def test_p0_hand_value(self):
        # (3 * 10 * 100 + 1) - 1 = 3000 with kappa1 = 10
        inp = inputs(mu=1.0, p=0.0, eps=0.1, f0=10 * 0.1 * 0.5 * 0.03125)
        assert kappa1(inp) == pytest.approx(10.0)
        b = bound_successful(inp)
        assert b.representable == pytest.approx(3000.0)

    def test_p_half_hand_value(self):
        # (0.5 * 3 * 10 * 100 + 1)^2 - 1 = 1501^2 - 1 = 2 253 000
        inp = inputs(mu=1.0, p=0.5, eps=0.1, f0=10 * 0.1 * 0.5 * 0.03125)
        b = bound_successful(inp)
        assert b.representable == pytest.approx(1501.0**2 - 1.0, rel=1e-12)

    def test_p1_exponential(self):
        inp = inputs(mu=0.0, p=1.0, eps=1.0, f0=0.1 * 0.5 * 0.03125)
        assert kappa1(inp) == pytest.approx(1.0)
        b = bound_successful(inp)
        assert b.representable == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_log_domain_matches_direct_where_representable(self):
        for p in (0.0, 0.3, 0.7, 1.0):
            for eps in (1.0, 0.5, 0.2):
                for mu in (0.5, 2.0):
                    inp = inputs(mu=mu, p=p, eps=eps, f0=0.01)
                    b = bound_successful(inp)
                    if b.representable is not None and b.representable > 0:
                        assert math.exp(b.log_value) == pytest.approx(
                            b.representable, rel=1e-12
                        )

    def test_overflow_goes_log_domain(self):
        inp = inputs(mu=1.0, p=1.0, eps=1e-3, f0=1.0)
        b = bound_successful(inp)
        assert b.representable is None
        assert b.log_value == pytest.approx((1 + 2) * kappa1(inp) * 1e6, rel=1e-12)

    def test_monotonicity_grid(self):
        def val(inp):
            return bound_successful(inp).log_value

        base = inputs(mu=1.0, p=0.5, eps=0.5, f0=0.05)
        from dataclasses import replace

        assert val(replace(base, eps=0.25)) >= val(base)
        assert val(replace(base, mu=2.0)) >= val(base)
        assert val(replace(base, f0=0.1)) >= val(base)  # kappa1 doubles
        assert val(replace(base, p=0.9)) >= val(base)

    def test_p_to_one_becomes_exponential(self):
        # log of the p < 1 bound approaches the p = 1 exponent shape
        target = (1 + 2 * 1.0) * 1.0 * 0.5**-2
        for p, tol in ((0.9, 0.5), (0.99, 0.12), (0.999, 0.1)):
            inp = inputs(mu=1.0, p=p, eps=0.5, f0=0.1 * 0.5 * 0.03125)
            assert kappa1(inp) == pytest.approx(1.0)
            ratio = bound_successful(inp).log_value / target
            assert abs(ratio - 1.0) <= tol


class TestInputValidation:
    # values that pass every other check (a NaN eps or mu fails its sign
    # check first)
    @pytest.mark.parametrize("name,value", [
        ("eps", math.inf), ("f0", math.inf), ("f0", math.nan), ("f_low", -math.inf),
        ("f_low", math.nan), ("mu", math.inf), ("L", math.inf), ("L", -math.inf),
        ("L", math.nan),
    ])
    def test_non_finite_input_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            inputs(**{name: value})

    def test_negative_k0_rejected(self):
        with pytest.raises(ValueError, match="k0 must be nonnegative"):
            inputs(k0=-5)
        assert inputs(k0=0).k0 == 0

    @pytest.mark.parametrize("s_eps", [math.nan, math.inf, -1.0])
    def test_bad_successful_count_rejected(self, s_eps):
        with pytest.raises(ValueError, match="s_eps must be finite and nonnegative"):
            bound_unsuccessful(inputs(), s_eps)


class TestBoundUnsuccessful:
    def test_alpha_beta_one_collapses(self):
        # 1 * 100 + log_{0.5}(0.03125) = 105
        inp = inputs(alpha=1.0, beta=1.0, gamma2=0.5, gamma4=2.0, delta0=1.0)
        assert bound_unsuccessful(inp, 100.0) == pytest.approx(105.0)

    def test_gamma4_one_drops_s_term(self):
        inp = inputs(alpha=1.0, beta=1.0, gamma3=1.0, gamma4=1.0)
        assert bound_unsuccessful(inp, 100.0) == bound_unsuccessful(inp, 10.0)

    def test_alpha_term(self):
        # (1 - 0) * log_{0.5}(0.5) = 1 extra over the alpha = 1 case
        base = inputs(alpha=1.0, beta=1.0, eps=0.5)
        with_alpha = inputs(alpha=0.0, beta=1.0, eps=0.5)
        assert bound_unsuccessful(with_alpha, 7.0) == pytest.approx(
            bound_unsuccessful(base, 7.0) + 1.0
        )


class TestChooseTau:
    def test_hand_cases(self):
        assert choose_tau(0.5, 2.0) == 3
        assert choose_tau(0.5, 1.0) == 2
        assert choose_tau(0.1, 1.5) == 2

    def test_defining_inequality_on_grid(self):
        rng = np.random.default_rng(0)
        pairs = [(float(rng.uniform(0.05, 0.9)), float(rng.uniform(1.0, 4.0))) for _ in range(20)]
        for g2, g4 in pairs:
            tau = choose_tau(g2, g4)
            assert g4 * g2 ** (tau - 1) < 1.0
            if tau > 1:
                assert not g4 * g2 ** (tau - 2) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            choose_tau(1.5, 2.0)


class TestXiBeta:
    def test_geometric_closed_form(self):
        # beta = 0: sum q^(k/3) = 1/(1 - 0.5^(1/3))
        got = xi_beta(0.5, 2.0, mu=1.0, p=0.5, beta=0.0)
        expected = 1.0 / (1.0 - 0.5 ** (1.0 / 3.0))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_brute_force_oracle(self):
        got = xi_beta(0.5, 2.0, mu=1.0, p=1.0, beta=1.0)
        ks = np.arange(10**6, dtype=float)
        brute = float(np.sum(0.5 ** (ks / 3.0) / (1.0 + 1.0 * (1.0 + ks))))
        assert got == pytest.approx(brute, rel=1e-9)
        assert 0.0 < got < 1.0 / (1.0 - 0.5 ** (1.0 / 3.0))

    def test_upper_estimate_dominates_truncations(self):
        got = xi_beta(0.5, 2.0, mu=2.0, p=0.5, beta=1.0)
        partial = 0.0
        for k in range(200):
            partial += 0.5 ** (k / 3.0) / (1.0 + 2.0 * (1.0 + k**0.5))
            assert got >= partial

    def test_huge_mu_vanishes(self):
        assert xi_beta(0.5, 2.0, mu=1e12, p=1.0, beta=1.0) <= 1e-11

    def test_tau_is_chosen_from_the_gammas(self):
        # gamma4 = 1: tau = 2 and q = 0.5, so beta = 0 gives 1/(1 - 0.5^(1/2))
        got = xi_beta(0.5, 1.0, mu=1.0, p=0.5, beta=0.0)
        assert got == pytest.approx(1.0 / (1.0 - 0.5**0.5), rel=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["gamma2", "gamma4", "mu", "p", "beta"])
    def test_rejects_non_finite_inputs_before_summing(self, name, bad):
        # a NaN beta used to run all 1e7 terms before "failed to converge"
        args = {"gamma2": 0.5, "gamma4": 2.0, "mu": 1.0, "p": 0.5, "beta": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"finite {name}"):
            xi_beta(args["gamma2"], args["gamma4"], mu=args["mu"], p=args["p"], beta=args["beta"])

    def test_negative_beta_still_converges(self):
        got = xi_beta(0.5, 2.0, mu=1.0, p=1.0, beta=-0.5)
        ks = np.arange(10**5, dtype=float)
        brute = float(np.sum(0.5 ** (ks / 3.0) * (1.0 + (1.0 + ks)) ** 0.5))
        # summation order differs, so allow last-ulp slack on the dominance
        assert got >= brute * (1 - 1e-14)
        assert got == pytest.approx(brute, rel=1e-6)


# At the default gammas tau = 3, and beta = 0 makes xi_beta geometric.
GEOMETRIC_XI = 1.0 / (1.0 - 0.5 ** (1.0 / 3.0))


def unit_kappas(**kw):
    """Inputs at the default constants but Delta0 whose kappa2 and kappa3
    come out 1: f0 = eta1 kappa_mdc a_min / tau and Delta0 = a_min / xi."""
    return inputs(f0=0.1 * 0.5 * 0.03125 / 3.0, delta0=0.03125 / GEOMETRIC_XI, **kw)


class TestBoundTotal:
    def test_finds_tau_and_xi_from_the_inputs(self):
        inp = inputs(mu=2.0, p=0.5, beta=0.5, gamma2=0.25, gamma4=3.0)
        tb = bound_total_k(inp)
        assert tb.tau == choose_tau(0.25, 3.0) == 2
        assert tb.xi == xi_beta(0.25, 3.0, mu=2.0, p=0.5, beta=0.5)

    def test_p0_hand_value(self):
        # prefactor 3; kappa2 = kappa3 = 1, eps = 0.5, alpha = 1 -> 3 (4 + 1) = 15
        tb = bound_total_k(unit_kappas(mu=1.0, p=0.0, eps=0.5, alpha=1.0, k0=0))
        assert (tb.tau, tb.xi) == (3, pytest.approx(GEOMETRIC_XI, rel=1e-10))
        assert tb.kappa2 == pytest.approx(1.0)
        assert tb.kappa3 == pytest.approx(1.0)
        assert tb.bound.representable == pytest.approx(15.0)

    def test_alpha_one_contribution_constant(self):
        inp = inputs(alpha=1.0, eps=0.01, p=0.5)
        tb = bound_total_k(inp)
        assert tb.eps_alpha_contribution == tb.kappa3
        assert tb.kappa3 == pytest.approx(inp.params.delta0 * GEOMETRIC_XI / inp.a_min)

    def test_p1_hand_value(self):
        # (k0+1) exp[(1 + mu(2+k0))/(1+k0) * (k2 eps^-2 + k3 eps^(alpha-1))] - 1
        # = exp(3 * 2) - 1 with kappa2 = kappa3 = 1, mu = 1 and eps = 1
        tb = bound_total_k(unit_kappas(mu=1.0, p=1.0, eps=1.0, alpha=1.0, k0=0))
        assert tb.bound.representable == pytest.approx(math.exp(6.0) - 1.0, rel=1e-12)


class TestMeasureEnvelope:
    def test_constant_norms_all_successful(self):
        # |B_k| = 1, |S_0| = 1: mu_hat = 1 / (1 + 1^p) = 0.5
        log = envelope_log([1.0] * 5)
        assert list(log.n_succ) == [1, 2, 3, 4, 5]
        assert measure_envelope(log, 0.5, "successful") == pytest.approx(0.5)

    def test_scripted_linear_growth(self):
        # B_k = k with every iteration successful: mu_hat <= 1 for p = 1
        log = envelope_log(map(float, range(50)))
        assert list(log.n_succ) == list(range(1, 51))
        mu = measure_envelope(log, 1.0, "successful")
        assert 0 < mu <= 1.0
        # exhaustive-max oracle
        expected = max(
            max(float(j) for j in range(k + 1)) / (1 + (k + 1) ** 1.0) for k in range(50)
        )
        assert mu == pytest.approx(expected)

    def test_iteration_counter(self):
        log = envelope_log([2.0] * 3)
        mu = measure_envelope(log, 1.0, "iteration")
        # max over k of 2 / (1 + k): attained at k = 0
        assert mu == pytest.approx(2.0)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            measure_envelope(IterationLog(), 0.5)


class TestAudit:
    def adversarial_audit(self, spec, assumption="successful_counter"):
        sharp, report = verify_sharpness(spec)
        assert sharp.passed
        return audit_run(report, bound_inputs(sharp, report), assumption), report

    def test_adversarial_p0(self):
        audit, report = self.adversarial_audit(AdversarialSpec(0.5, 0.0))
        assert report.n_succ_total == 4
        assert audit.passed
        by_name = {c.name: c for c in audit.checks}
        assert by_name["successful_iterations"].bound_value >= 4

    def test_adversarial_p1(self):
        audit, report = self.adversarial_audit(AdversarialSpec(0.5, 1.0, c=1.0))
        assert report.n_succ_total == 54
        assert audit.passed

    def test_iteration_counter_mode(self):
        audit, report = self.adversarial_audit(
            AdversarialSpec(0.5, 0.5), assumption="iteration_counter"
        )
        assert audit.passed
        assert any(c.name == "total_iterations" for c in audit.checks)

    def test_rejects_non_first_order(self):
        p = get_problem("rosenbrock")
        report = solve(p, TrParams(), build_model("exact", p), eps=1e-6, max_iter=2)
        assert report.status == "max_iter"
        with pytest.raises(ValueError):
            audit_run(report, inputs())

    @pytest.mark.parametrize("assumption,calls", [("successful_counter", ["successful"]),
                                                  ("iteration_counter",
                                                   ["successful", "iteration"])])
    def test_measures_each_envelope_it_checks(self, monkeypatch, assumption, calls):
        seen = []

        def counted(log, p, counter_kind="successful"):
            seen.append(counter_kind)
            return measure_envelope(log, p, counter_kind)

        monkeypatch.setattr(bounds, "measure_envelope", counted)
        audit, _ = self.adversarial_audit(AdversarialSpec(0.5, 0.5), assumption)
        assert audit.passed
        assert seen == calls

    def test_a_min_margin_reported(self):
        audit, _ = self.adversarial_audit(AdversarialSpec(0.5, 0.0))
        assert audit.a_min_margin >= 1.0 - 1e-10


def test_classical_reference_rows_finite():
    rows = classical_reference_rows(inputs(eps=0.1, L=2.0))
    assert set(rows) == {"scaled_radius_p0", "classical_p0"}
    assert all(math.isfinite(v) for v in rows.values())

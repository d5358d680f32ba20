import math

import numpy as np
import pytest

from dpsketch import guard
from dpsketch.errors import BudgetExhaustedError, ParameterDomainError, SpectralGuardError
from dpsketch.guard import AccuracySpec, PrivacyBudget
from dpsketch.lra import LraConfig, new_lra
from dpsketch.matprod import new_matprod
from dpsketch.regress import new_regress

BUDGET = PrivacyBudget(1.0, 0.01)
ACC = AccuracySpec(0.5, 0.2)


class TestParameterRecords:
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
    def test_budget_domain(self, eps, delta):
        with pytest.raises(ParameterDomainError):
            PrivacyBudget(eps, delta)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.0)])
    def test_accuracy_domain(self, alpha, beta):
        with pytest.raises(ParameterDomainError):
            AccuracySpec(alpha, beta)


class TestThresholdValues:
    # Frozen high-precision closed-form evaluations.
    def test_sigma_min_psg1(self):
        assert guard.sigma_min_psg1(BUDGET, 10) == pytest.approx(
            201.12493610081995, rel=1e-12
        )

    def test_sigma_min_psg2(self):
        assert guard.sigma_min_psg2(BUDGET, 10) == pytest.approx(
            40.0 * math.log(1000.0), rel=1e-12
        )

    def test_lra_lift_w(self):
        assert guard.lra_lift_w(BUDGET, 5) == pytest.approx(
            80.0 * math.log(500.0), rel=1e-12
        )

    def test_lift_scale_s(self):
        assert guard.lift_scale_s(BUDGET, 10) == pytest.approx(
            281.8511209572844, rel=1e-12
        )

    def test_eps_doubling_halves_thresholds(self):
        double = PrivacyBudget(2.0, 0.01)
        for fn in (guard.sigma_min_psg1, guard.sigma_min_psg2):
            assert fn(double, 10) == pytest.approx(fn(BUDGET, 10) / 2, rel=1e-15)
        assert guard.lra_lift_w(double, 5) == pytest.approx(
            guard.lra_lift_w(BUDGET, 5) / 2, rel=1e-15
        )
        assert guard.lift_scale_s(double, 10) == pytest.approx(
            guard.lift_scale_s(BUDGET, 10) / 2, rel=1e-15
        )

    def test_limit_large_eps(self):
        assert guard.sigma_min_psg2(PrivacyBudget(1e12, 0.01), 10) < 1e-9

    def test_monotone_in_r(self):
        vals1 = [guard.sigma_min_psg1(PrivacyBudget(1.0, 0.5), r) for r in (1, 4, 9, 16)]
        assert all(a < b for a, b in zip(vals1, vals1[1:]))
        vals2 = [guard.sigma_min_psg2(BUDGET, r) for r in (1, 2, 5, 11)]
        assert all(a < b for a, b in zip(vals2, vals2[1:]))

    def test_psg2_linear_scaling_in_r(self):
        # Factor the shared log away: threshold(2r)/ln(2r/d) = 2 * threshold(r)/ln(r/d).
        r = 6
        lhs = guard.sigma_min_psg2(BUDGET, 2 * r) / math.log(2 * r / BUDGET.delta)
        rhs = 2.0 * guard.sigma_min_psg2(BUDGET, r) / math.log(r / BUDGET.delta)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_in_delta(self):
        for fn in (lambda b: guard.sigma_min_psg1(b, 8), lambda b: guard.sigma_min_psg2(b, 8)):
            vals = [fn(PrivacyBudget(1.0, d)) for d in (0.2, 0.05, 0.01, 0.001)]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestLiftSufficiency:
    def test_w_dominates_psg2_threshold_grid(self):
        for eps in (0.1, 0.5, 1.0, 4.0):
            for delta in (0.2, 0.01, 1e-4, 1e-8):
                for k in (1, 2, 5, 10, 50):
                    b = PrivacyBudget(eps, delta)
                    assert guard.lra_lift_w(b, k) >= guard.sigma_min_psg2(b, k)

    def test_s_dominates_psg1_threshold_grid(self):
        for eps in (0.1, 1.0, 3.0):
            for delta in (0.2, 0.01, 1e-6):
                for r in (1, 4, 16, 100, 737):
                    b = PrivacyBudget(eps, delta)
                    assert guard.lift_scale_s(b, r) >= guard.sigma_min_psg1(b, r)

    def test_natural_log_is_load_bearing(self):
        # Re-deriving the thresholds with log base 2 must break the frozen
        # closed-form values the rest of the suite relies on.
        r, b = 10, BUDGET
        log2_value = 4 * math.sqrt(r * math.log2(2 / b.delta)) * math.log2(r / b.delta) / b.eps
        assert abs(log2_value - guard.sigma_min_psg1(b, r)) > 1.0


class TestSketchDimensions:
    def test_matmult_dim_value(self):
        assert guard.matmult_sketch_dim(AccuracySpec(0.5, 0.1)) == 96

    def test_matmult_tail_bound_grid(self):
        for alpha in (0.1, 0.3, 0.5, 0.8):
            for beta in (0.3, 0.1, 0.05, 0.01, 0.001):
                r = guard.matmult_sketch_dim(AccuracySpec(alpha, beta))
                assert 2.0 * math.exp(-r * alpha**2 / 8.0) <= beta

    def test_matmult_quadruples_when_alpha_halves(self):
        big = guard.matmult_sketch_dim(AccuracySpec(0.1, 0.1))
        small = guard.matmult_sketch_dim(AccuracySpec(0.2, 0.1))
        assert abs(big - 4 * small) <= 4

    def test_linreg_dim_value(self):
        assert guard.linreg_sketch_dim(AccuracySpec(0.5, 0.1), 10) == 737

    def test_linreg_dim_linear_in_d(self):
        acc = AccuracySpec(0.5, 0.1)
        r1 = guard.linreg_sketch_dim(acc, 10)
        r2 = guard.linreg_sketch_dim(acc, 20)
        assert abs(r2 - 2 * r1) <= 2

    def test_lift_scale_matches_regression_closed_form(self):
        # The regression mechanism's published lift closed form is reproduced when the
        # dimension argument is d ln(1/beta) / alpha; the pinned sketch
        # dimension of 16 d ln(1/beta) / alpha is a conservative inflation
        # of that value (see decisions ledger).
        alpha, beta, d = 0.5, 0.1, 10
        b = BUDGET
        r_exact = d * math.log(1.0 / beta) / alpha
        closed_form = math.sqrt(
            16.0 * d * math.log(1.0 / beta) * math.log(2.0 / b.delta) / (alpha * b.eps**2)
        ) * math.log(16.0 * d * math.log(1.0 / beta) / (alpha * b.delta))
        assert guard.lift_scale_s(b, r_exact) == pytest.approx(closed_form, rel=1e-12)
        assert guard.linreg_sketch_dim(AccuracySpec(alpha, beta), d) == math.ceil(16 * r_exact)


class TestCompose:
    def test_frozen_value(self):
        out = guard.compose(0.01, 1e-6, 100, 1e-6)
        assert out.eps == pytest.approx(0.5456521769756932, rel=1e-12)
        assert out.delta == pytest.approx(1.01e-4, rel=1e-12)

    def test_single_release_formula(self):
        out = guard.compose(0.1, 1e-5, 1, 1e-5)
        want = math.sqrt(2.0 * math.log(1e5)) * 0.1 + 2.0 * 0.01
        assert out.eps == pytest.approx(want, rel=1e-14)

    def test_monotone_in_ell(self):
        eps = [guard.compose(0.01, 1e-7, ell, 1e-6).eps for ell in (1, 5, 25, 125)]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhaustedError):
            guard.compose(0.1, 0.01, 200, 0.1)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            guard.compose(-0.1, 1e-6, 2, 1e-6)
        with pytest.raises(ParameterDomainError):
            guard.compose(0.1, 1e-6, 0, 1e-6)


class TestVerifySpectralGuard:
    def test_boundary_passes(self):
        w = 512.0
        report = guard.verify_spectral_guard(w * np.eye(4), w)
        assert report.passed and report.observed_sigma_min == pytest.approx(w)

    def test_zero_fails(self):
        report = guard.verify_spectral_guard(np.zeros((3, 3)), 1.0)
        assert not report.passed and report.observed_sigma_min == 0.0

    def test_lifted_block_identity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        w = 40.0
        lifted = np.hstack([w * np.eye(6), a])
        observed = np.linalg.svd(lifted, compute_uv=False)
        expected = np.sqrt(w**2 + np.linalg.svd(a, compute_uv=False) ** 2)
        np.testing.assert_allclose(observed, expected, atol=1e-8)
        report = guard.verify_spectral_guard(lifted, w)
        assert report.passed


def _build(kind, override=None, enforce=True):
    """(state, guard threshold, lift name) of a small state of ``kind``."""
    if kind == "lra":
        cfg = LraConfig(n=30, d=20, k=3, budget=BUDGET, seed=0, w_override=override,
                        enforce_guard=enforce)
        return new_lra(cfg), guard.sigma_min_psg2(cfg.effective_budget, 3 + cfg.oversample), "w"
    if kind == "multiply":
        state = new_matprod(30, 5, 4, BUDGET, ACC, 0, s_override=override, enforce_guard=enforce)
    else:
        state = new_regress(30, 4, BUDGET, ACC, 0, s_override=override, enforce_guard=enforce)
    return state, guard.sigma_min_psg1(BUDGET, state.r), "s"


class TestStateGuardReport:
    """Each mechanism state records the guard decision it made."""

    @pytest.mark.parametrize("kind", ["lra", "multiply", "regress"])
    def test_default_lift_passes(self, kind):
        state, required, name = _build(kind)
        lift = getattr(state, name)
        assert state.guard_report == guard.GuardReport(required, lift)
        assert state.guard_report.passed

    @pytest.mark.parametrize("kind", ["lra", "multiply", "regress"])
    def test_unenforced_shortfall_is_recorded(self, kind):
        name = "w" if kind == "lra" else "s"
        with pytest.raises(SpectralGuardError, match=f"lift {name}=0 fails"):
            _build(kind, override=0.0)
        state, required, _ = _build(kind, override=0.0, enforce=False)
        assert state.guard_report == guard.GuardReport(required, 0.0)
        assert not state.guard_report.passed

    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize("lift", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["lra", "multiply", "regress"])
    def test_non_finite_lift_is_refused(self, kind, lift, enforce):
        # NaN compares false against the threshold and an infinite lift
        # clears it; either would seed every sketch with NaN or inf.
        name = "w" if kind == "lra" else "s"
        with pytest.raises(ParameterDomainError, match=f"lift {name}=.* is not finite"):
            _build(kind, override=lift, enforce=enforce)

    def test_nan_observation_does_not_pass(self):
        assert not guard.GuardReport(1.0, math.nan).passed

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dpsketch import guard, harness
from dpsketch.errors import ContractViolationError, ParameterDomainError
from dpsketch.lra import LowRankFactor, LraConfig, new_lra
from dpsketch.matprod import MatProdState, new_matprod
from dpsketch.regress import new_regress

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)


class TestExactOracles:
    def test_exact_lsq_identity(self):
        b = np.arange(3.0)
        np.testing.assert_allclose(harness.exact_lsq(np.eye(3), b), b, atol=1e-14)

    def test_exact_lsq_planted_recovery(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 4))
        x0 = rng.standard_normal(4)
        x = harness.exact_lsq(a, a @ x0)
        assert np.linalg.norm(x - x0) <= 1e-10

    def test_exact_product_identity_blocks(self):
        a = np.vstack([np.eye(3), np.zeros((2, 3))])
        np.testing.assert_allclose(harness.exact_product(a, a), np.eye(3), atol=1e-14)

    def test_exact_product_mismatch(self):
        with pytest.raises(ContractViolationError):
            harness.exact_product(np.ones((3, 2)), np.ones((4, 2)))


class TestRandomMatrixLemmas:
    def test_pinv_frobenius_mean(self):
        rep = harness.mc_pseudoinverse_frobenius(10, 11, trials=3000, seed=2)
        assert rep.passed
        assert rep.observed_lhs.mean() == pytest.approx(1.0, rel=0.05)

    def test_pinv_frobenius_small_case(self):
        # k=1, p=2 draws an inverse chi-square with infinite variance, so
        # the sample mean converges slowly; large trials, looser band.
        rep = harness.mc_pseudoinverse_frobenius(1, 2, trials=100_000, seed=3, rel_tol=0.1)
        assert rep.passed and rep.bound_rhs[0] == pytest.approx(1.0)

    def test_pinv_frobenius_shrinks_with_oversampling(self):
        lo = harness.mc_pseudoinverse_frobenius(5, 20, trials=1500, seed=4)
        hi = harness.mc_pseudoinverse_frobenius(5, 6, trials=1500, seed=4)
        assert lo.observed_lhs.mean() < hi.observed_lhs.mean()

    def test_pinv_frobenius_negative_control(self):
        rep = harness.mc_pseudoinverse_frobenius(10, 11, trials=3000, seed=2, rel_tol=0.0001)
        assert not rep.passed

    def test_pinv_spectral_bound(self):
        rep = harness.mc_pseudoinverse_spectral(5, 6, trials=3000, seed=5)
        assert rep.passed
        assert rep.bound_rhs[0] == pytest.approx(math.e * math.sqrt(11) / 6, rel=1e-12)

    def test_pinv_spectral_bound_decreasing_in_p(self):
        b = [math.e * math.sqrt(5 + p) / p for p in (3, 6, 12, 24)]
        assert all(x > y for x, y in zip(b, b[1:]))

    def test_pinv_spectral_square_ish(self):
        assert harness.mc_pseudoinverse_spectral(20, 20, trials=500, seed=6).passed

    def test_jl_rate(self):
        rep = harness.mc_jl(16, 800, 0.2, trials=300, seed=7)
        assert rep.passed

    def test_jl_rejects_degenerate_alpha(self):
        with pytest.raises(ParameterDomainError):
            harness.mc_jl(16, 800, 1.0, trials=10)

    def test_jl_rejects_undersized_r(self):
        with pytest.raises(ParameterDomainError):
            harness.mc_jl(1000, 16, 0.2, trials=10)

    def test_jl_negative_control(self):
        # Shrinking the tolerated tail far below the true violation rate
        # must fail, so the check is not vacuous.
        rep = harness.mc_jl(16, 640, 0.2, trials=2000, seed=3, bound_scale=0.001)
        assert not rep.passed

    def test_column_independence(self):
        # The shipped generator at verify's shape; its negative control is
        # the halved-stride layout of test_sketch.TestColumnLayout.
        rep = harness.mc_column_independence(21, 4000, seed=9)
        assert rep.passed and rep.trials == 21 * 21 and rep.violations == 0
        assert 0 < rep.allowed * rep.trials < 1
        with pytest.raises(ParameterDomainError):
            harness.mc_column_independence(21, 1)

    def test_pinv_spectral_negative_control(self):
        rep = harness.mc_pseudoinverse_spectral(5, 6, trials=3000, seed=5, bound_scale=0.4)
        assert not rep.passed

    def test_jl_homogeneity(self):
        # The acceptance indicator is scale-free: x and 3x violate together.
        rng = np.random.default_rng(8)
        omega = rng.standard_normal((50, 12))
        x = rng.standard_normal(12)
        for scale in (1.0, 3.0):
            v = scale * x
            ratio = np.sum((omega @ v) ** 2) / (50 * np.sum(v**2))
            if scale == 1.0:
                first = abs(ratio - 1.0) > 0.2
            else:
                assert (abs(ratio - 1.0) > 0.2) == first


class TestDensityRatioCheck:
    def test_identical_pair_never_violates(self):
        rep = harness.dp_density_ratio_check(
            6, 4, BUDGET, samples=5000, seed=9, perturbation_scale=0.0
        )
        assert rep.passed and rep.violations == 0
        assert np.abs(rep.observed_lhs).max() == 0.0

    def test_guarded_pair_passes(self):
        rep = harness.dp_density_ratio_check(6, 4, BUDGET, samples=20_000, seed=10)
        assert rep.passed

    def test_below_guard_fails(self):
        rep = harness.dp_density_ratio_check(
            6, 4, BUDGET, samples=20_000, seed=10, sigma_scale=0.05, enforce_guard=False
        )
        assert not rep.passed

    def test_guard_precondition_enforced(self):
        with pytest.raises(ParameterDomainError):
            harness.dp_density_ratio_check(6, 4, BUDGET, samples=100, sigma_scale=0.05)

    def test_desk_scale_limit(self):
        with pytest.raises(ParameterDomainError):
            harness.dp_density_ratio_check(20, 4, BUDGET, samples=10)

    def test_reproducible(self):
        a = harness.dp_density_ratio_check(6, 4, BUDGET, samples=2000, seed=11)
        b = harness.dp_density_ratio_check(6, 4, BUDGET, samples=2000, seed=11)
        assert a.violations == b.violations
        assert np.array_equal(a.observed_lhs, b.observed_lhs)


class TestOracleErrors:
    """Each mechanism's error function is what its bound check measures."""

    def test_lra_trial_reports_lra_errors(self):
        cfg = LraConfig(n=30, d=20, k=3, budget=BUDGET, seed=0)
        a = np.random.default_rng(5).standard_normal((30, 20))
        state = new_lra(replace(cfg, seed=5))
        state.ingest_rows(0, a)
        errors = harness.lra_errors(a, state.finalize(), cfg)
        assert harness._lra_trial(cfg, 5, "fro") == (errors["frobenius_error"], errors["error_bound"])

    def test_matprod_trial_reports_matprod_errors(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((40, 6)), rng.standard_normal((40, 4))
        state = new_matprod(40, 6, 4, BUDGET, ACC, 5)
        state.ingest_rows(0, a, b)
        errors = harness.matprod_errors(a, b, state.product_query(), state)
        trial = harness._matprod_trial(40, 6, 4, BUDGET, ACC, 5)
        assert trial == (errors["frobenius_error"], errors["error_bound"])

    def test_regress_trial_reports_regress_errors(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 4))
        x0 = rng.standard_normal(4)
        b = (a @ x0 + rng.standard_normal(40))[:, None]
        state = new_regress(40, 4, BUDGET, ACC, 5)
        state.ingest_columns(0, a)
        errors = harness.regress_errors(a, b, state.query_many(b), state)
        trial = harness._regress_trial(40, 4, BUDGET, ACC, 5)
        assert trial == (errors["residuals"][0], errors["error_bound"][0])

    def test_trivial_error_is_the_error_of_zero_output(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((30, 6)), rng.standard_normal((30, 4))
        cfg = LraConfig(n=30, d=6, k=2, budget=BUDGET, seed=0)
        zero = LowRankFactor(u_hat=np.zeros((36, 0)), lam=np.zeros(0), requested_rank=2)
        errors = harness.lra_errors(a, zero, cfg)
        assert errors["trivial_error"] == errors["frobenius_error"] == np.linalg.norm(a)
        errors = harness.matprod_errors(a, b, np.zeros((6, 4)), new_matprod(30, 6, 4, BUDGET, ACC, 0))
        assert errors["trivial_error"] == errors["frobenius_error"]
        errors = harness.regress_errors(a, b, np.zeros((6, 4)), new_regress(30, 6, BUDGET, ACC, 0))
        assert errors["trivial_error"] == errors["residuals"]
        assert len(errors["trivial_error"]) == 4


class TestBoundChecks:
    def test_lra_bound_smoke(self):
        cfg = LraConfig(n=50, d=50, k=3, budget=BUDGET, seed=0)
        rep = harness.bound_check_lra(cfg, trials=8)
        assert rep.passed and rep.trials == 8

    def test_lra_bound_negative_control(self):
        cfg = LraConfig(n=50, d=50, k=3, budget=BUDGET, seed=0)
        rep = harness.bound_check_lra(cfg, trials=6, rhs_scale=0.01)
        assert not rep.passed

    def test_lra_bound_rejects_unknown_norm(self):
        cfg = LraConfig(n=50, d=50, k=3, budget=BUDGET, seed=0)
        with pytest.raises(ParameterDomainError):
            harness.bound_check_lra(cfg, trials=2, norm="nuclear")

    def test_matprod_bound_smoke_and_negative(self):
        rep = harness.bound_check_matprod(40, 6, 6, BUDGET, ACC, trials=10)
        assert rep.passed
        neg = harness.bound_check_matprod(40, 6, 6, BUDGET, ACC, trials=6, rhs_scale=1e-4)
        assert not neg.passed

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the multiply bound leaves out the lift's own JL error, "
        "about s^2 * sqrt(d1 * d2 / r)"))
    def test_matprod_bound_at_square_200(self):
        # At n = d1 = d2 = 200 (r = 74, s = 925.2) the error is 1.98e7 in every
        # trial, against a bound of 6.07e6; s^2 * sqrt(200 * 200 / 74) = 1.99e7.
        rep = harness.bound_check_matprod(200, 200, 200, BUDGET, ACC, trials=5)
        assert rep.passed

    def test_regress_bound_smoke_and_negative(self):
        rep = harness.bound_check_regress(40, 4, BUDGET, ACC, trials=10)
        assert rep.passed
        neg = harness.bound_check_regress(40, 4, BUDGET, ACC, trials=6, rhs_scale=1e-9)
        assert not neg.passed

    def test_nonprivate_sanity_smoke(self):
        rep = harness.nonprivate_sanity_check(40, 3, trials=5, budget=BUDGET)
        assert rep.passed

    def test_nonprivate_sanity_negative_control(self):
        # No range finder gets within half of the two-pass residual on
        # every seed, so a ratio bound of 0.5 must fail.
        rep = harness.nonprivate_sanity_check(40, 3, trials=5, budget=BUDGET, ratio_bound=0.5)
        assert not rep.passed and rep.violations == 5

    def test_unbiased_product_smoke(self):
        rep = harness.mc_unbiased_product(12, 2, 2, BUDGET, ACC, trials=600, seed=12)
        assert rep.passed

    def test_unbiased_product_negative_control(self, monkeypatch):
        # An estimate that keeps the lift's s^2 on its diagonal is biased,
        # and the check must see it. The sketches hold data terms only, so
        # the control adds the lift itself, as a release reads it.
        def biased(self):
            lift = self.s * self.sketcher.column_block(0, self.d)
            ya, yb = self.ya + lift[:, : self.d1], self.yb + lift[:, : self.d2]
            return (ya.T @ yb) / self.r

        monkeypatch.setattr(MatProdState, "product_query", biased)
        rep = harness.mc_unbiased_product(12, 2, 2, BUDGET, ACC, trials=600, seed=12)
        assert not rep.passed

    def test_report_json_schema(self):
        rep = harness.mc_pseudoinverse_frobenius(3, 4, trials=200, seed=13)
        blob = json.dumps(rep.to_json_dict())
        parsed = json.loads(blob)
        assert set(parsed) == {"check", "trials", "violations", "allowed", "pass", "seeds"}

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("check", [
        lambda t: harness.bound_check_lra(LraConfig(n=10, d=10, k=2, budget=BUDGET, seed=0), t),
        lambda t: harness.bound_check_matprod(10, 2, 2, BUDGET, ACC, t),
        lambda t: harness.bound_check_regress(10, 2, BUDGET, ACC, t),
        lambda t: harness.nonprivate_sanity_check(10, 2, t, BUDGET),
        lambda t: harness.mc_unbiased_product(10, 2, 2, BUDGET, ACC, t),
        lambda t: harness.mc_jl(10, 200, 0.5, t),
        lambda t: harness.mc_pseudoinverse_frobenius(3, 4, t),
        lambda t: harness.mc_pseudoinverse_spectral(3, 4, t),
        lambda t: harness.dp_density_ratio_check(4, 4, BUDGET, t),
    ], ids=["lra", "matprod", "regress", "nonprivate", "unbiased", "jl", "pinv_frobenius",
            "pinv_spectral", "density_ratio"])
    def test_no_trials_is_refused(self, check, count):
        # A check of no trials has no failure rate to compare.
        with pytest.raises(ParameterDomainError, match=">= 1"):
            check(count)

    @pytest.mark.parametrize("m_vectors", [0, -1])
    def test_no_jl_vectors_is_refused(self, monkeypatch, m_vectors):
        # No vectors, no failure rate: refused before any projection is drawn.
        def no_draws(seed):
            raise AssertionError("drew randomness")

        monkeypatch.setattr(harness.np.random, "default_rng", no_draws)
        with pytest.raises(ParameterDomainError, match="m_vectors must be >= 1"):
            harness.mc_jl(m_vectors, 200, 0.5, 1)

    def test_bound_check_reproducible(self):
        cfg = LraConfig(n=40, d=40, k=2, budget=BUDGET, seed=0)
        a = harness.bound_check_lra(cfg, trials=4, base_seed=50)
        b = harness.bound_check_lra(cfg, trials=4, base_seed=50)
        assert np.array_equal(a.observed_lhs, b.observed_lhs)
        assert a.seeds == b.seeds

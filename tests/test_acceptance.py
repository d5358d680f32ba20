"""Acceptance suite: one test per criterion, at the stated scale and
tolerance. Each test prints a single PASS line on success (run with -s to
see them); a pytest failure marks the criterion FAIL.

Budget defaults where a criterion leaves them open: eps=1, delta=0.01.
"""
import json

import numpy as np
import pytest

from dpsketch import cli, guard, harness
from dpsketch.lra import LraConfig, new_lra, reconstruct
from dpsketch.matprod import lifted_matrix, new_matprod
from dpsketch.regress import new_regress
from dpsketch.sketch import GaussianSketcher

BUDGET = guard.PrivacyBudget(1.0, 0.01)


def report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


class TestCriterion1SketchAlgebra:
    def test_sketch_algebra_1000_cases(self):
        rng = np.random.default_rng(2024)
        for case in range(1000):
            r = int(rng.integers(1, 7))
            m = int(rng.integers(2, 11))
            seed = int(rng.integers(0, 2**63))
            sk = GaussianSketcher(seed, r, m)
            # determinism
            again = GaussianSketcher(seed, r, m)
            assert np.array_equal(sk.omega, again.omega)
            # linearity at 1e-10 relative
            u, v = rng.standard_normal((m, 1)), rng.standard_normal((m, 1))
            a, b = rng.uniform(-3, 3, size=2)
            pu, pv, pw = sk.project_blocks(0, [u, v, a * u + b * v])
            ref1 = a * pu + b * pv
            assert np.linalg.norm(pw - ref1) <= 1e-10 * max(np.linalg.norm(ref1), 1e-30)
            # merge/stream equivalence at 1e-10: six column updates streamed
            # into one sketch, or alternately into two shards that are summed
            cols = 3
            single = np.zeros((r, cols))
            parts = [np.zeros((r, cols)) for _ in range(2)]
            for j in range(6):
                (y,) = sk.project_blocks(0, [rng.standard_normal((m, 1))])
                single[:, [j % cols]] += y
                parts[j % 2][:, [j % cols]] += y
            merged = parts[0] + parts[1]
            scale = max(np.linalg.norm(single), 1e-30)
            assert np.linalg.norm(merged - single) <= 1e-10 * scale
        report("1 sketch-algebra (1000 seeded cases)")


class TestCriterion2SpectralGuards:
    def test_lifted_spectra_clear_thresholds(self):
        rng = np.random.default_rng(77)
        acc = guard.AccuracySpec(0.5, 0.2)
        for trial in range(50):
            n = int(rng.integers(10, 24))
            a = rng.standard_normal((n, n)) * rng.uniform(0.5, 4.0)

            # low-rank lift (w I | A)
            k = int(rng.integers(1, 4))
            cfg = LraConfig(n=n, d=n, k=k, budget=BUDGET, seed=trial, symmetric=True)
            state = new_lra(cfg)
            lifted = np.hstack([state.w * np.eye(n), a])
            required = guard.sigma_min_psg2(cfg.effective_budget, k + cfg.oversample)
            assert guard.verify_spectral_guard(lifted, required).passed
            observed = np.linalg.svd(lifted, compute_uv=False)
            expected = np.sqrt(state.w**2 + np.linalg.svd(a, compute_uv=False) ** 2)
            np.testing.assert_allclose(observed, expected, atol=1e-8)

            # multiply lift
            d1 = int(rng.integers(2, 6))
            mp = new_matprod(n, d1, d1, BUDGET, acc, seed=trial)
            lifted_a = lifted_matrix(rng.standard_normal((n, d1)), mp.s, mp.d)
            required = guard.sigma_min_psg1(BUDGET, mp.r)
            assert guard.verify_spectral_guard(lifted_a, required).passed

            # regression lift
            d = int(rng.integers(2, 5))
            rg = new_regress(n, d, BUDGET, acc, seed=trial)
            lifted_r = lifted_matrix(rng.standard_normal((n, d)), rg.s, d)
            required = guard.sigma_min_psg1(BUDGET, rg.r)
            assert guard.verify_spectral_guard(lifted_r, required).passed
        report("2 spectral-guard sufficiency (3 x 50 instances)")


class TestCriterion3DensityRatio:
    def test_desk_scale_dp_check(self):
        rep = harness.dp_density_ratio_check(6, 4, BUDGET, samples=100_000, seed=31)
        assert rep.passed, f"violations {rep.violations} over allowed {rep.allowed}"
        neg = harness.dp_density_ratio_check(
            6, 4, BUDGET, samples=100_000, seed=31, sigma_scale=0.05, enforce_guard=False
        )
        assert not neg.passed, "negative control unexpectedly passed"
        report("3 density-ratio DP check (positive + negative control)")


class TestCriterion4LraFrobenius:
    def test_frobenius_bound_200(self):
        cfg = LraConfig(n=200, d=200, k=5, p=6, budget=BUDGET, seed=0)
        rep = harness.bound_check_lra(cfg, trials=50, norm="fro", base_seed=100)
        assert rep.passed, f"{rep.violations}/50 violations"
        report("4 low-rank Frobenius bound (50 seeds, n=d=200)")


class TestCriterion5LraSpectral:
    def test_spectral_bound_200(self):
        cfg = LraConfig(n=200, d=200, k=5, p=6, budget=BUDGET, seed=0)
        rep = harness.bound_check_lra(cfg, trials=50, norm="spectral", base_seed=100)
        assert rep.passed, f"{rep.violations}/50 violations"
        report("5 low-rank spectral bound (50 seeds, n=d=200)")


class TestCriterion6NonPrivateSanity:
    def test_lift_disabled_matches_two_pass(self):
        rep = harness.nonprivate_sanity_check(80, 4, trials=20, budget=BUDGET, base_seed=0)
        assert rep.passed, f"{rep.violations}/20 beyond 1.5x of the two-pass value"
        report("6 non-private range sanity (w=0, 20 seeds)")


class TestCriterion7MatMult:
    def test_error_bound(self):
        acc = guard.AccuracySpec(0.5, 0.2)
        rep = harness.bound_check_matprod(100, 20, 20, BUDGET, acc, trials=100)
        assert rep.passed, f"{rep.violations}/100 over allowance {rep.allowed}"
        report("7a multiply bound (100 seeds, n=100, d=20)")

    def test_unbiasedness(self):
        acc = guard.AccuracySpec(0.5, 0.2)
        rep = harness.mc_unbiased_product(20, 2, 2, BUDGET, acc, trials=10_000, seed=500)
        assert rep.passed, "entrywise mean left the 3-sigma band"
        report("7b multiply unbiasedness (10^4 sketchers, n=20)")


class TestCriterion8LinReg:
    def test_residual_bound(self):
        acc = guard.AccuracySpec(0.5, 0.2)
        rep = harness.bound_check_regress(200, 10, BUDGET, acc, trials=100)
        assert rep.passed, f"{rep.violations}/100 over allowance {rep.allowed}"
        report("8a regression residual bound (100 seeds, n=200, d=10)")

    def test_ridge_equivalence(self):
        rng = np.random.default_rng(81)
        n, d = 30, 5
        a = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        state = new_regress(n, d, BUDGET, guard.AccuracySpec(0.5, 0.2), seed=81)
        lifted = lifted_matrix(a, state.s, d)
        b_lifted = np.zeros(2 * (n + d))
        b_lifted[2 * d + n :] = b
        x_exact = harness.exact_lsq(lifted, b_lifted)
        x_ridge = np.linalg.solve(a.T @ a + state.s**2 * np.eye(d), a.T @ b)
        assert np.linalg.norm(x_exact - x_ridge) <= 1e-8 * np.linalg.norm(x_ridge)
        report("8b ridge equivalence of the lifted problem")


class TestCriterion9RandomMatrixLemmas:
    def test_pseudoinverse_frobenius(self):
        rep = harness.mc_pseudoinverse_frobenius(10, 11, trials=10_000, seed=90)
        assert rep.passed
        report("9a pseudo-inverse Frobenius trace lemma (k=10, p=11)")

    def test_pseudoinverse_spectral(self):
        rep = harness.mc_pseudoinverse_spectral(5, 6, trials=10_000, seed=91)
        assert rep.passed
        report("9b pseudo-inverse spectral bound (k=5, p=6)")

    def test_jl_concentration(self):
        rep = harness.mc_jl(16, 800, 0.2, trials=2000, seed=92)
        assert rep.passed
        report("9c norm-preservation tail (r=800, alpha=0.2)")


class TestCriterion10SpaceAccounting:
    def test_retained_entry_formulas(self):
        n, d, k, p = 200, 200, 5, 6
        cfg = LraConfig(n=n, d=d, k=k, p=p, budget=BUDGET, seed=0)
        state = new_lra(cfg)
        assert state.space_entries() == (n + d) * (k + p)

        sym = LraConfig(n=n, d=n, k=k, p=p, budget=BUDGET, seed=0, symmetric=True)
        sym_state = new_lra(sym)
        assert sym_state.space_entries() == n * (k + p)

        acc = guard.AccuracySpec(0.5, 0.2)
        mp = new_matprod(100, 20, 30, BUDGET, acc, seed=1)
        assert mp.space_entries() == mp.r * (20 + 30)

        rg = new_regress(100, 10, BUDGET, acc, seed=1)
        assert rg.space_entries() == rg.r * 10
        report("10 retained-entry formulas (all mechanisms)")


@pytest.fixture(scope="module")
def fixtures_200(tmp_path_factory):
    base = tmp_path_factory.mktemp("fixtures")
    rng = np.random.default_rng(1100)
    a = rng.standard_normal((200, 200))
    b = rng.standard_normal((200, 200))
    queries = rng.standard_normal((200, 2))
    paths = {}
    for name, m in (("a", a), ("b", b), ("q", queries)):
        p = base / f"{name}.csv"
        with open(p, "w") as fh:
            for row in m:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        paths[name] = str(p)
    return base, paths, a, b, queries


class TestCriterion11CliEndToEnd:
    BUDGET_ARGS = ["--eps", "1", "--delta", "0.01"]
    ACC_ARGS = ["--alpha", "0.5", "--beta", "0.2"]

    def _load_report(self, path):
        with open(path) as fh:
            parsed = json.load(fh)
        for key in ("params", "guard_report", "error_vs_oracle", "space_entries", "wall_time_ms"):
            assert key in parsed
        return parsed

    def test_lra_command(self, fixtures_200):
        base, paths, a, _, _ = fixtures_200
        rp = str(base / "lra.json")
        rc = cli.main(
            ["lra", "--input", paths["a"], "--rank", "5", "--oversample", "6",
             "--seed", "7", "--report", rp, "--oracle", *self.BUDGET_ARGS]
        )
        assert rc == 0
        rep = self._load_report(rp)
        assert rep["guard_report"]["passed"]
        k, p = 5, 6
        assert rep["space_entries"] == (200 + 200) * (k + p)
        # bit-exact oracle recomputation, replaying the CLI's one chunk: a
        # row-by-row replay sums in another order, which need not round alike
        cfg = LraConfig(n=200, d=200, k=5, p=6, budget=BUDGET, seed=7)
        state = new_lra(cfg)
        state.ingest_rows(0, a)
        approx = reconstruct(state.finalize(), cfg)
        want = float(np.linalg.norm(a - approx))
        assert rep["error_vs_oracle"]["frobenius_error"] == want
        report("11a CLI low-rank command (exit 0, schema, bit-exact oracle)")

    def test_multiply_command(self, fixtures_200):
        base, paths, a, b, _ = fixtures_200
        rp = str(base / "mul.json")
        rc = cli.main(
            ["multiply", "--input", paths["a"], "--input-b", paths["b"],
             "--seed", "7", "--report", rp, "--oracle",
             *self.BUDGET_ARGS, *self.ACC_ARGS]
        )
        assert rc == 0
        rep = self._load_report(rp)
        acc = guard.AccuracySpec(0.5, 0.2)
        state = new_matprod(200, 200, 200, BUDGET, acc, seed=7)
        state.ingest_rows(0, a, b)  # the CLI's one chunk, as in test_lra_command
        want = float(np.linalg.norm(harness.exact_product(a, b) - state.product_query()))
        assert rep["error_vs_oracle"]["frobenius_error"] == want
        assert rep["space_entries"] == state.r * (200 + 200)
        report("11b CLI multiply command (exit 0, schema, bit-exact oracle)")

    def test_regress_command(self, fixtures_200):
        base, paths, a, _, queries = fixtures_200
        rp = str(base / "reg.json")
        rc = cli.main(
            ["regress", "--input", paths["a"], "--input-b", paths["q"],
             "--seed", "7", "--report", rp, "--oracle",
             *self.BUDGET_ARGS, *self.ACC_ARGS]
        )
        assert rc == 0
        rep = self._load_report(rp)
        acc = guard.AccuracySpec(0.5, 0.2)
        state = new_regress(200, 200, BUDGET, acc, seed=7)
        for i in range(200):
            state.ingest_rows(i, a[[i]])
        wants = [
            float(np.linalg.norm(a @ state.query_many(queries[:, [j]])[:, 0] - queries[:, j]))
            for j in range(2)
        ]
        assert rep["error_vs_oracle"]["residuals"] == wants
        assert rep["space_entries"] == state.r * 200
        report("11c CLI regress command (exit 0, schema, bit-exact oracle)")

    def test_verify_and_bench_commands(self, fixtures_200, capsys):
        rc = cli.main(["verify", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        parsed = json.loads(out)
        assert all(c["pass"] for c in parsed["checks"])
        # Releases are timed by the benchmark, not by a CLI command.
        assert cli.main(["bench", "--seed", "2"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bench" in err
        report("11d CLI verify command (exit 0, schema-valid JSON); bench refused (exit 2)")

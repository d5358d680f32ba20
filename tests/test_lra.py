import dataclasses
import tracemalloc

import numpy as np
import pytest

from dpsketch import guard, numerics, sketch
from dpsketch.errors import (
    CapacityError,
    ConfigurationError,
    ContractViolationError,
    OnePassViolationError,
    SpectralGuardError,
)
from dpsketch.lra import LraConfig, LowRankFactor, LraState, new_lra, reconstruct

BUDGET = guard.PrivacyBudget(1.0, 0.01)


def omega_rows(state, j0, j1):
    """Rows j0..j1-1 of omega.T (lift rows first, then data rows), regenerated."""
    return state.sketcher.column_block(j0, j1).T


def stream_all(state, a):
    for i in range(a.shape[0]):
        state.ingest_rows(i, a[[i]])
    return state


class TestConstruction:
    def test_symmetric_dimensions(self):
        cfg = LraConfig(n=20, d=20, k=3, p=4, budget=BUDGET, seed=0, symmetric=True)
        state = new_lra(cfg)
        assert omega_rows(state, 0, 20).shape == (20, 7)
        assert omega_rows(state, 20, 40).shape == (20, 7)
        assert state.sketcher.m == 40 and state.sketcher.r == 7
        assert state.y.shape == (20, 7)

    def test_nonsymmetric_dimensions(self):
        cfg = LraConfig(n=24, d=16, k=3, p=4, budget=BUDGET, seed=0)
        state = new_lra(cfg)
        assert state.sketcher.m == 40 and state.sketcher.r == 7
        assert omega_rows(state, 0, 24).shape == (24, 7)
        assert omega_rows(state, 24, 40).shape == (16, 7)
        assert state.y.shape == (40, 7)

    def test_bottom_block_starts_as_its_lift(self):
        # The bottom block's lift, w I_d against the data block, never
        # depends on the data, so it is in y from construction.
        cfg = LraConfig(n=24, d=16, k=3, p=4, budget=BUDGET, seed=0)
        state = new_lra(cfg)
        assert np.array_equal(state.y[24:], state.w * state.omega_data)
        assert not state.y[:24].any()

    def test_state_fields_are_pinned(self):
        # One sketch of the lifted matrix: a second sketch field cannot come
        # back without changing this list.
        names = [f.name for f in dataclasses.fields(LraState)]
        assert names == [
            "config", "w", "sketcher", "omega_data", "y", "guard_report", "_ingested", "_finalized",
        ]

    def test_projection_generated_once(self, monkeypatch):
        # At n=2000, d=1000, k=50 the projection is 101 x 3000. Setup
        # generates the 101 x 1000 data block once and keeps it; block
        # ingest generates each lift column once, for its own rows; the
        # solve walks the 101 x 2000 lift block once, tile by tile.
        generated = []
        original = sketch._tile

        def spy(sk, bg, j0, j1, buf):
            generated.append(sk.r * (j1 - j0))
            return original(sk, bg, j0, j1, buf)

        monkeypatch.setattr(sketch, "_tile", spy)
        state = new_lra(LraConfig(n=2000, d=1000, k=50, budget=BUDGET, seed=0))
        assert sum(generated) == 101_000
        assert state.space_entries() == 404_000
        a = np.random.default_rng(0).standard_normal((2000, 1000))
        for i0 in range(0, 2000, 500):
            state.ingest_rows(i0, a[i0 : i0 + 500])
        assert sum(generated) == 101_000 + 202_000
        state.finalize()
        assert sum(generated) == 101_000 + 202_000 + 202_000

    def test_default_oversampling(self):
        cfg = LraConfig(n=30, d=30, k=4, budget=BUDGET, seed=0)
        assert cfg.oversample == 5

    def test_w_delegates_to_guard(self):
        # The budget is always halved, so (2, 0.02) runs at (1, 0.01).
        cfg = LraConfig(n=30, d=30, k=4, budget=guard.PrivacyBudget(2.0, 0.02), seed=1)
        assert new_lra(cfg).w == guard.lra_lift_w(BUDGET, 4)

    def test_halved_budget_default(self):
        cfg = LraConfig(n=30, d=30, k=4, budget=BUDGET, seed=1)
        halved = guard.PrivacyBudget(0.5, 0.005)
        assert new_lra(cfg).w == pytest.approx(guard.lra_lift_w(halved, 4), rel=1e-15)

    def test_rank_too_large(self):
        with pytest.raises(ConfigurationError):
            LraConfig(n=10, d=8, k=5, p=5, budget=BUDGET, seed=0)

    def test_guard_refusal_on_override(self):
        cfg = LraConfig(n=30, d=30, k=3, budget=BUDGET, seed=0, w_override=1.0)
        with pytest.raises(SpectralGuardError):
            new_lra(cfg)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("k, delta, builds", [
        (1, 0.074, True), (1, 0.075, False),
        (2, 0.868, True), (2, 0.870, False),
        (3, 0.99, True),
    ])
    def test_default_lift_guard_region(self, eps, k, delta, builds):
        # With p = k+1, w / threshold = 4k ln(2k/delta) / ((2k+1) ln((4k+2)/delta)),
        # whatever eps: below 1 for k = 1 once delta > 2/27, for k = 2 once
        # delta > ~0.8686, and never for k >= 3.
        cfg = LraConfig(n=8, d=8, k=k, budget=guard.PrivacyBudget(eps, delta), seed=0)
        ratio = 4 * k * np.log(2 * k / delta) / ((2 * k + 1) * np.log((4 * k + 2) / delta))
        assert (ratio >= 1) == builds
        if builds:
            assert new_lra(cfg).guard_report.passed
        else:
            with pytest.raises(SpectralGuardError, match="lift w=.* fails"):
                new_lra(cfg)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("cap_over_size, builds", [(1, True), (0, False)])
    def test_capacity_error(self, monkeypatch, symmetric, cap_over_size, builds):
        # The data block is the state's one generated block and a single
        # column_block request, so the config is refused at construction
        # exactly when (k+p) x d (or (k+p) x n, symmetric) exceeds the cap.
        # One that fits ingests and finalizes under it, with the tile no
        # larger than the cap, as TILE_ENTRIES <= MAX_SKETCH_ENTRIES ships.
        n, d = (24, 24) if symmetric else (24, 16)
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=0, symmetric=symmetric)
        cap = 7 * d - 1 + cap_over_size
        monkeypatch.setattr(sketch, "MAX_SKETCH_ENTRIES", cap)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", cap)
        if not builds:
            with pytest.raises(CapacityError, match=f"7x{d} exceeds"):
                new_lra(cfg)
            return
        a = np.random.default_rng(0).standard_normal((n, d))
        state = new_lra(cfg)
        for i0 in range(0, n, 8):
            state.ingest_rows(i0, a[i0 : i0 + 8])
        assert state.finalize().u_hat.shape[1] == 3

    def test_capacity_error_at_the_shipped_cap(self):
        # The same refusal at the real 2^27 cap, before any sketch is
        # allocated: (k+p) * d = 101 * 1,328,889 is just over it, and the
        # sketches would take another 1 GiB or more. The side that fits is
        # left untested: its data block alone would take 1 GiB.
        cap = sketch.MAX_SKETCH_ENTRIES
        assert 101 * 1_328_888 <= cap < 101 * 1_328_889
        for n, symmetric in ((101, False), (1_328_889, True)):
            cfg = LraConfig(n=n, d=1_328_889, k=50, budget=BUDGET, seed=0, symmetric=symmetric)
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match="101x1328889 exceeds"):
                    new_lra(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_guard_bypass_for_tests(self):
        cfg = LraConfig(
            n=30, d=30, k=3, budget=BUDGET, seed=0, w_override=0.0, enforce_guard=False
        )
        assert new_lra(cfg).w == 0.0


class TestIngest:
    def test_zero_row_leaves_lift_part(self):
        cfg = LraConfig(n=12, d=12, k=2, budget=BUDGET, seed=3, symmetric=True)
        state = new_lra(cfg)
        state.ingest_rows(4, np.zeros((1, 12)))
        np.testing.assert_allclose(state.y[4, :], state.w * omega_rows(state, 4, 5)[0], rtol=1e-15)

    def test_streaming_matches_batch_symmetric(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((15, 15))
        a = (g + g.T) / np.sqrt(2)
        cfg = LraConfig(n=15, d=15, k=2, budget=BUDGET, seed=4, symmetric=True)
        state = stream_all(new_lra(cfg), a)
        batch = state.w * omega_rows(state, 0, 15) + a @ omega_rows(state, 15, 30)
        assert np.linalg.norm(state.y - batch) <= 1e-9 * np.linalg.norm(batch)

    def test_streaming_matches_batch_nonsymmetric(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((18, 12))
        cfg = LraConfig(n=18, d=12, k=2, budget=BUDGET, seed=5)
        state = stream_all(new_lra(cfg), a)
        omega1, omega2 = omega_rows(state, 0, 18), omega_rows(state, 18, 30)
        y1 = state.w * omega1 + a @ omega2
        y2 = a.T @ omega1 + state.w * omega2
        assert np.linalg.norm(state.y[:18] - y1) <= 1e-9 * np.linalg.norm(y1)
        assert np.linalg.norm(state.y[18:] - y2) <= 1e-9 * np.linalg.norm(y2)

    def test_duplicate_row_rejected(self):
        cfg = LraConfig(n=10, d=10, k=2, budget=BUDGET, seed=0, symmetric=True)
        state = new_lra(cfg)
        state.ingest_rows(3, np.ones((1, 10)))
        with pytest.raises(OnePassViolationError):
            state.ingest_rows(3, np.ones((1, 10)))

    def test_each_row_exactly_once(self):
        cfg = LraConfig(n=8, d=8, k=2, budget=BUDGET, seed=0, symmetric=True)
        state = stream_all(new_lra(cfg), np.eye(8))
        assert state.rows_seen == 8 and bool(state._ingested.all())

    def test_wrong_length(self):
        cfg = LraConfig(n=10, d=6, k=2, budget=BUDGET, seed=0)
        with pytest.raises(ContractViolationError):
            new_lra(cfg).ingest_rows(0, np.zeros((1, 10)))

    def test_finalize_requires_full_stream(self):
        cfg = LraConfig(n=10, d=10, k=2, budget=BUDGET, seed=0, symmetric=True)
        state = new_lra(cfg)
        state.ingest_rows(0, np.zeros((1, 10)))
        with pytest.raises(ContractViolationError):
            state.finalize()


class TestBlockIngest:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_blocks_equal_rows(self, symmetric):
        rng = np.random.default_rng(13)
        n, d = 17, (17 if symmetric else 11)
        a = rng.standard_normal((n, d))
        cfg = LraConfig(n=n, d=d, k=2, budget=BUDGET, seed=13, symmetric=symmetric)
        by_row = stream_all(new_lra(cfg), a)
        blocked = new_lra(cfg)
        for i0, i1 in ((5, 12), (0, 5), (12, 13), (13, 17)):
            blocked.ingest_rows(i0, a[i0:i1])
        assert blocked.rows_seen == n and bool(blocked._ingested.all())
        assert np.linalg.norm(blocked.y - by_row.y) <= 1e-12 * np.linalg.norm(by_row.y)
        f_row, f_block = by_row.finalize(), blocked.finalize()
        want = reconstruct(f_row, cfg)
        got = reconstruct(f_block, cfg)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_overlap_rejected_before_any_change(self):
        cfg = LraConfig(n=10, d=10, k=2, budget=BUDGET, seed=0, symmetric=True)
        state = new_lra(cfg)
        state.ingest_rows(4, np.ones((2, 10)))
        y = state.y.copy()
        for i0, k in ((0, 5), (5, 3), (4, 2), (3, 7)):
            with pytest.raises(OnePassViolationError):
                state.ingest_rows(i0, np.ones((k, 10)))
        with pytest.raises(OnePassViolationError):
            state.ingest_rows(5, np.ones((1, 10)))
        assert np.array_equal(state.y, y) and state.rows_seen == 2
        assert state._ingested.tolist() == [False] * 4 + [True] * 2 + [False] * 4

    def test_ingest_refuses_a_lift_column_over_the_cap(self, monkeypatch):
        # The ingest walk carries the cap of one column_block request: with
        # the cap and the tile under r = k + p = 7, one lift column is over
        # it, and the block is refused before any state changes.
        cfg = LraConfig(n=12, d=8, k=3, p=4, budget=BUDGET, seed=0)
        state = new_lra(cfg)
        y = state.y.copy()
        monkeypatch.setattr(sketch, "MAX_SKETCH_ENTRIES", 6)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 6)
        with pytest.raises(CapacityError, match="7x1 exceeds"):
            state.ingest_rows(0, np.ones((4, 8)))
        assert state.rows_seen == 0 and np.array_equal(state.y, y)

    def test_block_longer_than_a_tile_ingests_tile_by_tile(self, monkeypatch):
        # Under a cap of 7 x 16 entries a tile holds 16 lift columns, so a
        # 24-row block walks its lift columns in two requests, where one
        # request for all 24 would exceed the cap.
        n, d = 24, 16
        a = np.random.default_rng(16).standard_normal((n, d))
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=16)
        monkeypatch.setattr(sketch, "MAX_SKETCH_ENTRIES", 7 * 16)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 7 * 16)
        by_eight = new_lra(cfg)
        for i0 in range(0, n, 8):
            by_eight.ingest_rows(i0, a[i0 : i0 + 8])
        whole = new_lra(cfg)
        requests = []
        original = sketch._tile

        def spy(sk, bg, j0, j1, buf):
            requests.append(sk.r * (j1 - j0))
            return original(sk, bg, j0, j1, buf)

        monkeypatch.setattr(sketch, "_tile", spy)
        whole.ingest_rows(0, a)
        assert requests == [7 * 16, 7 * 8]
        assert np.linalg.norm(whole.y - by_eight.y) <= 1e-12 * np.linalg.norm(by_eight.y)

    def test_range_and_width_checks(self):
        cfg = LraConfig(n=10, d=6, k=2, budget=BUDGET, seed=0)
        state = new_lra(cfg)
        with pytest.raises(ContractViolationError):
            state.ingest_rows(8, np.ones((3, 6)))
        with pytest.raises(ContractViolationError):
            state.ingest_rows(-1, np.ones((2, 6)))
        with pytest.raises(ContractViolationError):
            state.ingest_rows(0, np.ones((2, 10)))
        with pytest.raises(ContractViolationError):
            state.ingest_rows(10, np.ones((1, 6)))
        assert state.rows_seen == 0

    def test_ingest_after_finalize_refused(self):
        cfg = LraConfig(n=8, d=8, k=2, budget=BUDGET, seed=0, symmetric=True)
        state = stream_all(new_lra(cfg), np.eye(8))
        state.finalize()
        with pytest.raises(ContractViolationError):
            state.ingest_rows(0, np.zeros((0, 8)))


class TestFinalize:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_null_matrix_band(self, symmetric):
        # Published output on the all-zero matrix is numerical noise around
        # the lift scale: well inside w * n * 1e-12.
        n = 20
        violations = 0
        for seed in range(100):
            cfg = LraConfig(n=n, d=n, k=3, budget=BUDGET, seed=seed, symmetric=symmetric)
            state = stream_all(new_lra(cfg), np.zeros((n, n)))
            factor = state.finalize()
            rec = reconstruct(factor, cfg)
            band = state.w * n * 1e-12
            if np.linalg.norm(rec) > band or np.abs(factor.lam).max(initial=0.0) > state.w * 1e-10:
                violations += 1
        assert violations == 0

    def test_exact_rank_recovery_symmetric(self):
        # Recovery error scales like w sqrt(n) / sigma_k times a seed-driven
        # conditioning factor of the square projection solve, so the
        # dominant-signal premise is instantiated with a wide separation.
        n, k = 50, 4
        errs = []
        for seed in range(20):
            cfg = LraConfig(n=n, d=n, k=k, budget=BUDGET, seed=seed, symmetric=True)
            state = new_lra(cfg)
            rng = np.random.default_rng(1_000 + seed)
            q, _ = np.linalg.qr(rng.standard_normal((n, k)))
            lam = state.w * np.sqrt(n) * 1e4 * rng.uniform(1.0, 2.0, size=k)
            lam *= rng.choice([-1.0, 1.0], size=k)
            a = (q * lam) @ q.T
            stream_all(state, a)
            rec = reconstruct(state.finalize(), cfg)
            errs.append(np.linalg.norm(a - rec) / np.linalg.norm(a))
        assert max(errs) <= 0.05

    def test_deficient_flag_on_zero_range(self):
        cfg = LraConfig(
            n=12, d=12, k=2, budget=BUDGET, seed=0, symmetric=True,
            w_override=0.0, enforce_guard=False,
        )
        state = stream_all(new_lra(cfg), np.zeros((12, 12)))
        factor = state.finalize()
        assert factor.deficient and factor.u_hat.shape[1] == 0

    def test_reduced_rank_flagged(self):
        # Rank-1 input with the lift disabled: only one numerically nonzero
        # eigenvalue survives, so the factor is reduced and flagged.
        n = 12
        cfg = LraConfig(
            n=n, d=n, k=3, budget=BUDGET, seed=1, symmetric=True,
            w_override=0.0, enforce_guard=False,
        )
        u = np.random.default_rng(1).standard_normal(n)
        a = np.outer(u, u)
        state = stream_all(new_lra(cfg), a)
        factor = state.finalize()
        assert factor.deficient and factor.u_hat.shape[1] == 1

    def test_factor_columns_orthonormal(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((24, 24))
        a = (g + g.T) / np.sqrt(2)
        cfg = LraConfig(n=24, d=24, k=3, budget=BUDGET, seed=11, symmetric=True)
        factor = stream_all(new_lra(cfg), a).finalize()
        gram = factor.u_hat.T @ factor.u_hat
        assert np.linalg.norm(gram - np.eye(factor.u_hat.shape[1])) <= 1e-9

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_finalize_twice_gives_the_same_factor(self, symmetric):
        # finalize only reads y, so a second call solves the same system.
        n, d = 20, 20 if symmetric else 14
        a = np.random.default_rng(17).standard_normal((n, d))
        cfg = LraConfig(n=n, d=d, k=3, budget=BUDGET, seed=17, symmetric=symmetric)
        state = stream_all(new_lra(cfg), a)
        y = state.y.copy()
        first, second = state.finalize(), state.finalize()
        assert first.u_hat.tobytes() == second.u_hat.tobytes()
        assert first.lam.tobytes() == second.lam.tobytes()
        assert np.array_equal(state.y, y)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_release_independent_of_basis_signs(self, symmetric, monkeypatch):
        # The range basis psi enters the release only through psi @ ubar and
        # the core solved in its coordinates, so flipping its column signs
        # leaves the eigenvalues and the reconstruction unchanged.
        n, d = 30, 30 if symmetric else 20
        a = np.random.default_rng(14).standard_normal((n, d))
        if symmetric:
            a = (a + a.T) / np.sqrt(2)
        cfg = LraConfig(n=n, d=d, k=4, budget=BUDGET, seed=14, symmetric=symmetric)
        base = stream_all(new_lra(cfg), a).finalize()
        range_of = numerics.orthonormal_range

        def flipped(y):
            psi = range_of(y)
            psi[:, 1::2] *= -1.0
            return psi

        monkeypatch.setattr(numerics, "orthonormal_range", flipped)
        other = stream_all(new_lra(cfg), a).finalize()
        assert other.lam.tobytes() == base.lam.tobytes()
        rec, rec_other = reconstruct(base, cfg), reconstruct(other, cfg)
        assert np.linalg.norm(rec_other - rec) <= 1e-12 * np.linalg.norm(rec)


class TestTiledFinalize:
    def test_tile_fits_the_request_cap(self):
        # finalize walks the lift block in tiles, so this keeps each of its
        # requests under MAX_SKETCH_ENTRIES whatever n is.
        assert sketch.TILE_ENTRIES <= sketch.MAX_SKETCH_ENTRIES

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_many_tiles_give_the_one_tile_factor(self, monkeypatch, symmetric):
        # k+p = 7 and n = 24: a tile of 5 columns walks the lift block in
        # 5 tiles, the last one ragged, and no request holds more.
        n, d = 24, 24 if symmetric else 16
        rng = np.random.default_rng(15)
        a = 50.0 * rng.standard_normal((n, 3)) @ rng.standard_normal((3, d))
        a += rng.standard_normal((n, d))
        if symmetric:
            a = (a + a.T) / 2.0
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=15, symmetric=symmetric)
        one_tile = stream_all(new_lra(cfg), a).finalize()
        state = stream_all(new_lra(cfg), a)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 5 * 7)
        requests = []
        original = sketch._tile

        def spy(sk, bg, j0, j1, buf):
            requests.append(sk.r * (j1 - j0))
            return original(sk, bg, j0, j1, buf)

        monkeypatch.setattr(sketch, "_tile", spy)
        tiled = state.finalize()
        assert requests == [35, 35, 35, 35, 28]
        assert np.linalg.norm(tiled.lam - one_tile.lam) <= 1e-12 * np.linalg.norm(one_tile.lam)
        rec, rec_tiled = reconstruct(one_tile, cfg), reconstruct(tiled, cfg)
        assert np.linalg.norm(rec_tiled - rec) <= 1e-12 * np.linalg.norm(rec)


class TestReconstruct:
    def test_zero_eigenvalues(self):
        cfg = LraConfig(n=6, d=6, k=2, budget=BUDGET, seed=0, symmetric=True)
        factor = LowRankFactor(
            u_hat=np.linalg.qr(np.random.default_rng(0).standard_normal((6, 2)))[0],
            lam=np.zeros(2),
            requested_rank=2,
        )
        assert np.linalg.norm(reconstruct(factor, cfg)) == 0.0

    def test_symmetric_output_exact(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((16, 16))
        a = (g + g.T) / np.sqrt(2)
        cfg = LraConfig(n=16, d=16, k=3, budget=BUDGET, seed=12, symmetric=True)
        rec = reconstruct(stream_all(new_lra(cfg), a).finalize(), cfg)
        assert np.linalg.norm(rec - rec.T) == 0.0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_rank_at_most_k(self, symmetric):
        rng = np.random.default_rng(13)
        n = 20
        a = rng.standard_normal((n, n))
        if symmetric:
            a = (a + a.T) / np.sqrt(2)
        cfg = LraConfig(n=n, d=n, k=3, budget=BUDGET, seed=13, symmetric=symmetric)
        rec = reconstruct(stream_all(new_lra(cfg), a).finalize(), cfg)
        sigma = np.linalg.svd(rec, compute_uv=False)
        assert sigma[3] <= 1e-9 * max(sigma[0], 1e-300)


class TestSpaceAccounting:
    def test_symmetric_entries(self):
        cfg = LraConfig(n=25, d=25, k=3, p=5, budget=BUDGET, seed=0, symmetric=True)
        assert new_lra(cfg).space_entries() == 2 * 25 * 8

    def test_nonsymmetric_entries(self):
        cfg = LraConfig(n=25, d=15, k=3, p=5, budget=BUDGET, seed=0)
        assert new_lra(cfg).space_entries() == (25 + 2 * 15) * 8

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_entries_are_the_retained_arrays(self, symmetric):
        # The data block of the projection and the sketches are all the
        # state holds; the lift block is regenerated when it is read.
        cfg = LraConfig(n=25, d=25 if symmetric else 15, k=3, p=5, budget=BUDGET, seed=0,
                        symmetric=symmetric)
        state = new_lra(cfg)
        held = [state.omega_data, state.y]
        assert state.space_entries() == sum(x.size for x in held)
        assert state.omega_data.shape == (cfg.d, 8)
        want = omega_rows(state, cfg.n, cfg.n + cfg.d)
        np.testing.assert_array_equal(state.omega_data, want)

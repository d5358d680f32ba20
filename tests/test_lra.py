import dataclasses
import tracemalloc

import numpy as np
import pytest

from dpsketch import guard, lra, numerics, sketch
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
        # depends on the data; it enters with row 0, so y is zeros until
        # then, and the bottom block is lift plus data after.
        cfg = LraConfig(n=24, d=16, k=3, p=4, budget=BUDGET, seed=0)
        a = np.random.default_rng(0).standard_normal((24, 16))
        state = new_lra(cfg)
        assert not state.y.any()
        state.ingest_rows(4, a[4:])
        data = a[4:].T @ omega_rows(state, 4, 24)
        assert np.linalg.norm(state.y[24:] - data) <= 1e-12 * np.linalg.norm(data)
        state.ingest_rows(0, a[:4])
        want = state.w * omega_rows(state, 24, 40) + a.T @ omega_rows(state, 0, 24)
        assert np.linalg.norm(state.y[24:] - want) <= 1e-12 * np.linalg.norm(want)

    def test_state_fields_are_pinned(self):
        # One sketch of the lifted matrix and no block of the projection: a
        # second array field cannot come back without changing this list.
        names = [f.name for f in dataclasses.fields(LraState)]
        assert names == ["config", "w", "sketcher", "y", "guard_report", "_ingested", "_finalized"]

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_construction_generates_nothing(self, tile_calls, symmetric):
        cfg = LraConfig(n=24, d=24 if symmetric else 16, k=3, p=4, budget=BUDGET, seed=0,
                        symmetric=symmetric)
        new_lra(cfg)
        assert tile_calls == []

    def test_projection_generated_once(self, tile_calls):
        # Normals generated by a release, r = k + p per column: setup
        # generates nothing; each chunk walks its own lift columns and
        # regenerates the data columns (d, or n symmetric) once; finalize
        # walks all n + d columns once, or the 2n symmetric ones. At the
        # lra-csv shape, in 500-row chunks and in the CLI's 260-row chunks
        # (four tiles of 65 rows), that is 101 x (2000 + 4 x 1000 + 3000)
        # and 101 x (2000 + 8 x 1000 + 3000).
        cli_step = 4 * sketch.per_tile(1000)
        for n, d, symmetric, step in (
            (2000, 1000, False, 500), (2000, 1000, False, cli_step), (300, 300, True, 70)
        ):
            cfg = LraConfig(n=n, d=d, k=50, budget=BUDGET, seed=0, symmetric=symmetric)
            kp, chunks = 101, -(-n // step)
            finalize = 2 * n if symmetric else n + d
            want = kp * (n + chunks * d + finalize)
            tile_calls.clear()
            a = np.random.default_rng(0).standard_normal((n, d))
            state = new_lra(cfg)
            for i0 in range(0, n, step):
                state.ingest_rows(i0, a[i0 : i0 + step])
            state.finalize()
            assert tile_calls.normals == want

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
        # Every generation is a tile of a walk, so the cap refuses only a
        # column over it: r = k + p = 7 entries. Under a cap of 7 the 7 x d
        # data block spans d tiles, and the state builds, ingests and
        # finalizes. Under a cap of 6 both paths, which generate nothing at
        # construction, are refused at their first block, before any state
        # changes.
        n, d = (24, 24) if symmetric else (24, 16)
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=0, symmetric=symmetric)
        cap = 6 + cap_over_size
        monkeypatch.setattr(sketch, "MAX_SKETCH_ENTRIES", cap)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", cap)
        a = np.random.default_rng(0).standard_normal((n, d))
        if not builds:
            state = new_lra(cfg)
            with pytest.raises(CapacityError, match="7x1 exceeds"):
                state.ingest_rows(0, a[:8])
            assert state.rows_seen == 0 and not state.y.any()
            return
        state = new_lra(cfg)
        for i0 in range(0, n, 8):
            state.ingest_rows(i0, a[i0 : i0 + 8])
        assert state.finalize().u_hat.shape[1] == 3

    def test_requests_stay_within_one_tile_at_the_shipped_cap(self, monkeypatch):
        # At the shipped constants a release whose 11 x 12,000 data block
        # spans three tiles never asks for more than one tile at a time, so
        # the state has no cap of its own: only a column of more than
        # MAX_SKETCH_ENTRIES entries is refused.
        assert sketch.TILE_ENTRIES <= sketch.MAX_SKETCH_ENTRIES
        cfg = LraConfig(n=40, d=12_000, k=5, p=6, budget=BUDGET, seed=0)
        assert 11 * cfg.d > 2 * sketch.TILE_ENTRIES
        checked = []
        original = sketch._check_capacity

        def spy(r, cols):
            checked.append(r * cols)
            return original(r, cols)

        monkeypatch.setattr(sketch, "_check_capacity", spy)
        a = np.random.default_rng(0).standard_normal((cfg.n, cfg.d))
        state = new_lra(cfg)
        state.ingest_rows(0, a[:25])
        state.ingest_rows(25, a[25:])
        state.finalize()
        assert len(checked) == 5 and max(checked) <= sketch.TILE_ENTRIES

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

    def test_block_longer_than_a_tile_ingests_tile_by_tile(self, monkeypatch, tile_calls):
        # Under a cap of 7 x 16 entries a tile holds 16 columns, so a
        # 24-row block walks its lift columns in two requests, where one
        # request for all 24 would exceed the cap, and then its 16 data
        # columns in one. On two threads the tiles are half as wide: three
        # lift requests and two data requests of 8 columns each.
        n, d = 24, 16
        a = np.random.default_rng(16).standard_normal((n, d))
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=16)
        monkeypatch.setattr(sketch, "MAX_SKETCH_ENTRIES", 7 * 16)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 7 * 16)
        for split in (False, True):
            monkeypatch.setattr(sketch, "_split_walks", split)
            by_eight = new_lra(cfg)
            for i0 in range(0, n, 8):
                by_eight.ingest_rows(i0, a[i0 : i0 + 8])
            whole = new_lra(cfg)
            tile_calls.clear()
            whole.ingest_rows(0, a)
            requests = [r * (j1 - j0) for r, j0, j1 in sorted(tile_calls, key=lambda c: c[1])]
            assert requests == ([7 * 8] * 5 if split else [7 * 16, 7 * 8, 7 * 16])
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


class TestBottomLift:
    """On the general path the bottom block's lift, w times the data block,
    enters with the block that holds row 0, once, in whatever order the
    rows come."""

    @staticmethod
    def _stream(cfg, a, starts):
        state = new_lra(cfg)
        for i0 in starts:
            state.ingest_rows(i0, a[i0 : i0 + 8])
        return state

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_row_zero_last_equals_row_zero_first(self, symmetric):
        n, d = 24, 24 if symmetric else 16
        a = np.random.default_rng(20).standard_normal((n, d))
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=20, symmetric=symmetric)
        first = self._stream(cfg, a, (0, 8, 16))
        last = self._stream(cfg, a, (16, 8, 0))
        assert np.linalg.norm(last.y - first.y) <= 1e-12 * np.linalg.norm(first.y)

    def test_an_empty_block_at_row_zero_carries_no_lift(self):
        # A zero-row block at row 0 ingests no row, so the lift waits for
        # the block that does: keyed on i0 == 0 alone it would enter with
        # both, and the bottom block would carry two lifts.
        cfg = LraConfig(n=24, d=16, k=3, p=4, budget=BUDGET, seed=21)
        a = np.random.default_rng(21).standard_normal((24, 16))
        want = self._stream(cfg, a, (0, 8, 16)).y
        state = new_lra(cfg)
        state.ingest_rows(0, a[:0])
        assert not state.y.any() and state.rows_seen == 0
        for i0 in (0, 8, 16):
            state.ingest_rows(i0, a[i0 : i0 + 8])
        assert np.linalg.norm(state.y - want) <= 1e-12 * np.linalg.norm(want)
        # Negative control: one more lift in the bottom block fails the check.
        doubled = state.y.copy()
        doubled[24:] += state.w * omega_rows(state, 24, 40)
        assert np.linalg.norm(doubled - want) > 1e-12 * np.linalg.norm(want)


def _shard(cfg, a, rows, rng):
    """A state that ingests ``rows`` of a one at a time, in random order."""
    state = new_lra(cfg)
    for i in rng.permutation(rows):
        state.ingest_rows(i, a[[i]])
    return state


class TestMerge:
    """Two shards of one stream merge into the whole stream's state."""

    @staticmethod
    def _case(symmetric, seed):
        n, d = 30, 30 if symmetric else 20
        rng = np.random.default_rng(seed)
        a = 300.0 * rng.standard_normal((n, 3)) @ rng.standard_normal((3, d))
        a += rng.standard_normal((n, d))
        if symmetric:
            a = (a + a.T) / 2.0
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=seed, symmetric=symmetric)
        whole = new_lra(cfg)
        for i0 in range(0, n, 7):
            whole.ingest_rows(i0, a[i0 : i0 + 7])
        return cfg, a, whole, rng

    @staticmethod
    def _split(cfg, a, rng, row0_first):
        """Two shards over a random split of the rows; row 0 in the first
        or in the second."""
        first = rng.random(cfg.n) < 0.5
        first[0] = row0_first
        rows = np.arange(cfg.n)
        return _shard(cfg, a, rows[first], rng), _shard(cfg, a, rows[~first], rng)

    @pytest.mark.parametrize("seed", [22, 23, 24])
    @pytest.mark.parametrize("row0_first", [True, False], ids=["row0-first", "row0-second"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_sharded_equals_whole(self, symmetric, row0_first, seed):
        cfg, a, whole, rng = self._case(symmetric, seed)
        shard_a, shard_b = self._split(cfg, a, rng, row0_first)
        merged = shard_a.merge(shard_b)
        assert merged.rows_seen == cfg.n and merged.sketcher is shard_a.sketcher
        assert np.linalg.norm(merged.y - whole.y) <= 1e-10 * np.linalg.norm(whole.y)
        want = reconstruct(whole.finalize(), cfg)
        got = reconstruct(merged.finalize(), cfg)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # Negative control: the recipe in which both shards carry the lift
        # subtracts one regenerated lift, so the lift is missing here.
        if not symmetric:
            old = shard_a.y + shard_b.y
            old[cfg.n :] -= whole.w * omega_rows(whole, cfg.n, cfg.n + cfg.d)
            assert np.linalg.norm(old - whole.y) > 1e-10 * np.linalg.norm(whole.y)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_a_merged_state_keeps_ingesting(self, symmetric):
        cfg, a, whole, rng = self._case(symmetric, 25)
        part = rng.integers(0, 3, size=cfg.n)
        rows = np.arange(cfg.n)
        merged = _shard(cfg, a, rows[part == 0], rng).merge(_shard(cfg, a, rows[part == 1], rng))
        for i in rows[part == 2]:
            merged.ingest_rows(i, a[[i]])
        assert merged.rows_seen == cfg.n
        assert np.linalg.norm(merged.y - whole.y) <= 1e-10 * np.linalg.norm(whole.y)
        want = reconstruct(whole.finalize(), cfg)
        got = reconstruct(merged.finalize(), cfg)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_merge_generates_nothing(self, tile_calls, symmetric):
        cfg, a, _whole, rng = self._case(symmetric, 26)
        shard_a, shard_b = self._split(cfg, a, rng, True)
        tile_calls.clear()
        shard_a.merge(shard_b)
        assert tile_calls.normals == 0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_refusals_leave_both_shards_unchanged(self, symmetric):
        cfg, a, _whole, rng = self._case(symmetric, 27)
        shard_a, shard_b = self._split(cfg, a, rng, True)
        full = _shard(cfg, a, np.arange(cfg.n), rng)
        full.finalize()
        shared = int(np.flatnonzero(shard_a._ingested)[0])
        others = [
            (full, "finalized"),
            (new_lra(dataclasses.replace(cfg, seed=cfg.seed + 1)), "different configs"),
            (new_lra(dataclasses.replace(cfg, w_override=2 * shard_a.w)), "different configs"),
            (_shard(cfg, a, np.arange(shared, cfg.n), rng), f"row {shared} was ingested by both"),
        ]
        y, seen = shard_a.y.copy(), shard_a._ingested.copy()
        with pytest.raises(ContractViolationError, match="cannot merge LraState with object"):
            shard_a.merge(object())
        for other, message in others:
            other_y, other_seen = other.y.copy(), other._ingested.copy()
            with pytest.raises((ContractViolationError, OnePassViolationError), match=message):
                shard_a.merge(other)
            assert np.array_equal(other.y, other_y) and np.array_equal(other._ingested, other_seen)
        assert np.array_equal(shard_a.y, y) and np.array_equal(shard_a._ingested, seen)
        with pytest.raises(ContractViolationError, match="finalized"):
            full.merge(new_lra(cfg))


def _stored_block_release(state, a, step):
    """The recipe that keeps the data block: (y, lam, u_hat) of a release.

    The data block omega[:, n:].T is generated once and kept; each chunk
    adds w * its lift rows plus rows @ data block to its top rows, and
    rows.T @ its lift rows to the bottom block, which starts as w times the
    data block; the solve reads the kept block.
    """
    cfg, w, n = state.config, state.w, state.config.n
    lift_block = omega_rows(state, 0, n)
    data_block = np.ascontiguousarray(omega_rows(state, n, state.sketcher.m))
    y = np.zeros_like(state.y)
    if not cfg.symmetric:
        y[n:] = w * data_block
    for i0 in range(0, n, step):
        rows = a[i0 : i0 + step]
        lift_rows = lift_block[i0 : i0 + len(rows)]
        y[i0 : i0 + len(rows)] = w * lift_rows + rows @ data_block
        if not cfg.symmetric:
            y[n:] += rows.T @ lift_rows
    psi = numerics.orthonormal_range(y)
    lift = psi[:n].T @ lift_block
    coeff = psi[-len(data_block) :].T @ data_block
    if not cfg.symmetric:
        coeff = lift = lift + coeff
    core = numerics.lstsq(coeff.T, (psi.T @ y - w * lift).T)
    lam_all, ubar = np.linalg.eigh((core + core.T) / 2.0)
    keep = np.argsort(-np.abs(lam_all), kind="stable")[: cfg.k]
    return y, lam_all[keep], psi @ ubar[:, keep]


class TestStoredBlockRecipe:
    """Regenerating the data block per chunk gives the release that keeping it gave."""

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("step", [1, 8, 24, 40], ids=["row", "tile", "tiles", "whole"])
    def test_same_sketch_and_factor(self, monkeypatch, symmetric, step):
        # Tiles of 8 columns at r = 7: the 30 or 40 data columns span 4 or 5
        # tiles, and the chunks are 1 row, 1 tile, 3 tiles and all 40 rows.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 7 * 8)
        n, d = (40, 40) if symmetric else (40, 30)
        rng = np.random.default_rng(18)
        a = 300.0 * rng.standard_normal((n, 3)) @ rng.standard_normal((3, d))
        a += rng.standard_normal((n, d))
        if symmetric:
            a = (a + a.T) / 2.0
        cfg = LraConfig(n=n, d=d, k=3, p=4, budget=BUDGET, seed=18, symmetric=symmetric)
        state = new_lra(cfg)
        for i0 in range(0, n, step):
            state.ingest_rows(i0, a[i0 : i0 + step])
        factor = state.finalize()
        y, lam, u_hat = _stored_block_release(state, a, step)
        assert np.linalg.norm(state.y - y) <= 1e-12 * np.linalg.norm(y)
        assert np.abs(factor.lam - lam).max() <= 1e-10 * np.abs(lam).max()
        want = reconstruct(LowRankFactor(u_hat, lam, cfg.k), cfg)
        got = reconstruct(factor, cfg)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _one_request_walk(sk, j0, j1):
    # Negative control: the whole range generated as one column_block request.
    if j1 > j0:
        yield j0, j1, sk.column_block(j0, j1)


class TestIngestTransient:
    @staticmethod
    def _peak_in_tiles():
        # r = 7 and d = 16 tiles of 4,096 columns; a 4-row block, made
        # before tracing starts, so only the call's own memory is counted.
        cfg = LraConfig(n=8, d=16 * 4096, k=3, p=4, budget=BUDGET, seed=19)
        state = new_lra(cfg)
        rows = np.random.default_rng(19).standard_normal((4, cfg.d))
        tracemalloc.start()
        try:
            state.ingest_rows(0, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * sketch.TILE_ENTRIES)

    def test_an_ingest_holds_about_two_tiles(self, monkeypatch):
        # Beyond its input an ingest holds the data walk's one tile buffer,
        # one sub-block's temporaries and a tile-sized bottom-row product
        # (2.88-2.89 tiles measured with 16,384-word sub-blocks); the data
        # block as one request holds all 16 tiles of it, and more (34.6).
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 7 * 4096)
        assert self._peak_in_tiles() < 3
        monkeypatch.setattr(lra, "_tiles", _one_request_walk)
        assert self._peak_in_tiles() >= 16


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
        # finalize walks the projection in tiles, so this keeps each of its
        # requests under MAX_SKETCH_ENTRIES whatever n is.
        assert sketch.TILE_ENTRIES <= sketch.MAX_SKETCH_ENTRIES

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_many_tiles_give_the_one_tile_factor(self, monkeypatch, tile_calls, symmetric):
        # k+p = 7 and n = 24: a tile holds 5 columns, and no request holds
        # more. The general path walks all n + d = 40 columns once, in 8
        # tiles; the symmetric path walks the lift block and the data block,
        # 24 columns each, in 5 tiles each, the last one ragged. On two
        # threads the tiles hold 2 columns: 20 tiles, and 12 per block.
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
        for split in (False, True):
            monkeypatch.setattr(sketch, "_split_walks", split)
            tile_calls.clear()
            tiled = state.finalize()
            requests = [r * (j1 - j0) for r, j0, j1 in sorted(tile_calls, key=lambda c: c[1])]
            if split:
                assert requests == ([14] * 24 if symmetric else [14] * 20)
            else:
                assert requests == ([35, 35, 35, 35, 28] * 2 if symmetric else [35] * 8)
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
        assert new_lra(cfg).space_entries() == 25 * 8

    def test_nonsymmetric_entries(self):
        cfg = LraConfig(n=25, d=15, k=3, p=5, budget=BUDGET, seed=0)
        assert new_lra(cfg).space_entries() == (25 + 15) * 8

    @staticmethod
    def _retained_float64(state):
        """Entries of every float64 array held in the state's dataclass fields."""
        values = (getattr(state, f.name) for f in dataclasses.fields(state))
        return sum(v.size for v in values if isinstance(v, np.ndarray) and v.dtype == np.float64)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_entries_are_the_retained_arrays(self, symmetric):
        # space_entries counts every float64 array the state holds, after
        # construction and after a release; the projection is regenerated
        # wherever it is read.
        n, d = (25, 25) if symmetric else (25, 15)
        cfg = LraConfig(n=n, d=d, k=3, p=5, budget=BUDGET, seed=0, symmetric=symmetric)
        state = new_lra(cfg)
        assert state.space_entries() == self._retained_float64(state)
        stream_all(state, np.random.default_rng(0).standard_normal((n, d))).finalize()
        assert state.space_entries() == self._retained_float64(state)
        # Negative control: a state that keeps one more array, here the data
        # block the state used to keep, is caught.
        holding = dataclasses.make_dataclass(
            "HoldingState", [("omega_data", np.ndarray, None)], bases=(LraState,)
        )
        kept = holding(**vars(state), omega_data=omega_rows(state, n, n + d).copy())
        assert kept.space_entries() != self._retained_float64(kept)

import numpy as np
import pytest

from dpsketch import guard, sketch
from dpsketch.errors import ContractViolationError, SpectralGuardError
from dpsketch.harness import binomial_allowed, exact_product
from dpsketch.matprod import lift_layout, lifted_matrix, new_matprod
from dpsketch.sketch import GaussianSketcher

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)


def make_state(n=30, d1=5, d2=4, seed=0):
    return new_matprod(n, d1, d2, BUDGET, ACC, seed)


class TestConstruction:
    def test_parameter_delegation(self):
        state = make_state()
        assert state.r == guard.matmult_sketch_dim(ACC)
        assert state.s == pytest.approx(guard.lift_scale_s(BUDGET, state.r), rel=1e-15)

    def test_sketcher_dimension(self):
        state = make_state(n=30, d1=5, d2=4)
        assert state.sketcher.m == 2 * (30 + 5)

    def test_guard_refusal_on_override(self):
        with pytest.raises(SpectralGuardError):
            new_matprod(10, 3, 3, BUDGET, ACC, 0, s_override=0.5)


class TestIngestion:
    def test_zero_column_is_lift_only(self):
        # A column with no data holds nothing in the sketch; what a release
        # reads of it is its lift alone.
        state = make_state(seed=2)
        state.ingest_a_columns(0, np.ones((30, 2)))
        om = state.sketcher.omega
        assert not state.ya[:, 2].any()
        ya, _yb = state._lifted_sketches()
        np.testing.assert_array_equal(ya[:, 2], state.s * om[:, 2])

    def test_streamed_equals_batch(self):
        rng = np.random.default_rng(3)
        n, d1, d2 = 30, 5, 4
        a = rng.standard_normal((n, d1))
        b = rng.standard_normal((n, d2))
        state = make_state(n, d1, d2, seed=3)
        for j in range(d1):
            state.ingest_a_columns(j, a[:, [j]])
        for j in range(d2):
            state.ingest_b_columns(j, b[:, [j]])
        om = state.sketcher.omega
        _m, lo = lift_layout(n, state.d)
        for data, read, mat in zip((state.ya, state.yb), state._lifted_sketches(), (a, b)):
            batch = om @ lifted_matrix(mat, state.s, state.d)
            assert np.linalg.norm(read - batch) <= 1e-9 * np.linalg.norm(batch)
            terms = om[:, lo:] @ mat
            assert np.linalg.norm(data - terms) <= 1e-9 * np.linalg.norm(terms)

    def test_turnstile_updates(self):
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(30), rng.standard_normal(30)
        split = make_state(seed=4)
        split.ingest_a_columns(1, v[:, None])
        split.ingest_a_columns(1, (u - v)[:, None])
        whole = make_state(seed=4)
        whole.ingest_a_columns(1, u[:, None])
        assert np.allclose(split.ya, whole.ya, rtol=0, atol=1e-10)

    def test_row_stream_equals_column_stream(self):
        rng = np.random.default_rng(5)
        n, d1, d2 = 24, 4, 3
        a = rng.standard_normal((n, d1))
        b = rng.standard_normal((n, d2))
        by_col = make_state(n, d1, d2, seed=5)
        for j in range(d1):
            by_col.ingest_a_columns(j, a[:, [j]])
        for j in range(d2):
            by_col.ingest_b_columns(j, b[:, [j]])
        by_row = make_state(n, d1, d2, seed=5)
        for i in range(n):
            by_row.ingest_a_rows(i, a[[i]])
            by_row.ingest_b_rows(i, b[[i]])
        scale = np.linalg.norm(by_col.ya)
        assert np.linalg.norm(by_col.ya - by_row.ya) <= 1e-10 * scale
        assert np.linalg.norm(by_col.yb - by_row.yb) <= 1e-10 * scale

    def test_index_out_of_range(self):
        state = make_state()
        with pytest.raises(ContractViolationError):
            state.ingest_a_columns(5, np.zeros((30, 1)))
        with pytest.raises(ContractViolationError):
            state.ingest_b_columns(-1, np.zeros((30, 1)))


class TestBlockIngest:
    @pytest.mark.parametrize("tile_cols", [1, 3, None])
    def test_blocks_equal_rows_and_columns(self, monkeypatch, tile_cols):
        if tile_cols is not None:
            # Walk tiles of tile_cols columns: half of per_tile(r).
            monkeypatch.setattr(sketch, "TILE_ENTRIES", 2 * tile_cols * guard.matmult_sketch_dim(ACC))
        rng = np.random.default_rng(12)
        n, d1, d2 = 23, 5, 3
        a = rng.standard_normal((n, d1))
        b = rng.standard_normal((n, d2))
        by_row, by_col = make_state(n, d1, d2, seed=12), make_state(n, d1, d2, seed=12)
        for i in range(n):
            by_row.ingest_a_rows(i, a[[i]])
            by_row.ingest_b_rows(i, b[[i]])
        for j in range(d1):
            by_col.ingest_a_columns(j, a[:, [j]])
        for j in range(d2):
            by_col.ingest_b_columns(j, b[:, [j]])
        row_blocks, col_blocks = make_state(n, d1, d2, seed=12), make_state(n, d1, d2, seed=12)
        for i0, i1 in ((0, 7), (7, 8), (8, 23)):
            row_blocks.ingest_a_rows(i0, a[i0:i1])
            row_blocks.ingest_b_rows(i0, b[i0:i1])
        col_blocks.ingest_a_columns(0, a[:, :2])
        col_blocks.ingest_a_columns(2, a[:, 2:])
        col_blocks.ingest_b_columns(1, b[:, 1:])
        col_blocks.ingest_b_columns(0, b[:, :1])
        for blocked in (row_blocks, col_blocks):
            for ref in (by_row, by_col):
                for got, want in ((blocked.ya, ref.ya), (blocked.yb, ref.yb)):
                    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                    assert rel <= 1e-12

    @pytest.mark.parametrize("tile_cols", [1, 3, None])
    def test_paired_rows_equal_one_operand_at_a_time(self, monkeypatch, tile_cols):
        if tile_cols is not None:
            # Walk tiles of tile_cols columns: half of per_tile(r).
            monkeypatch.setattr(sketch, "TILE_ENTRIES", 2 * tile_cols * guard.matmult_sketch_dim(ACC))
        rng = np.random.default_rng(13)
        n, d1, d2 = 23, 5, 3
        a = rng.standard_normal((n, d1))
        b = rng.standard_normal((n, d2))
        paired, single = make_state(n, d1, d2, seed=13), make_state(n, d1, d2, seed=13)
        for i0, i1 in ((0, 7), (7, 8), (8, 23)):
            paired.ingest_rows(i0, a[i0:i1], b[i0:i1])
            single.ingest_a_rows(i0, a[i0:i1])
            single.ingest_b_rows(i0, b[i0:i1])
        for got, want in ((paired.ya, single.ya), (paired.yb, single.yb)):
            if tile_cols is None:
                np.testing.assert_array_equal(got, want)
            else:
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert rel <= 1e-12

    def test_paired_rows_refused_before_either_sketch_changes(self):
        state = make_state(n=30, d1=5, d2=4)
        before = state.ya.copy(), state.yb.copy()
        for i0, a_rows, b_rows in (
            (0, np.ones((3, 5)), np.ones((4, 4))),  # row counts differ
            (0, np.ones((3, 5)), np.ones((3, 5))),  # B rows too wide
            (0, np.ones((3, 4)), np.ones((3, 4))),  # A rows too narrow
            (28, np.ones((3, 5)), np.ones((3, 4))),  # past row n
            (-1, np.ones((3, 5)), np.ones((3, 4))),  # before row 0
            (0, np.ones((3, 5)), np.full((3, 4), np.nan)),  # non-finite B
        ):
            with pytest.raises(ContractViolationError):
                state.ingest_rows(i0, a_rows, b_rows)
            np.testing.assert_array_equal(state.ya, before[0])
            np.testing.assert_array_equal(state.yb, before[1])

    def test_ingest_rows_refuses_no_pairs(self):
        state = make_state(n=30, d1=5, d2=4)
        before = state.ya.copy(), state.yb.copy()
        with pytest.raises(ContractViolationError, match="no row blocks"):
            state._ingest_rows(0)
        np.testing.assert_array_equal(state.ya, before[0])
        np.testing.assert_array_equal(state.yb, before[1])

    def test_block_range_and_shape_checks(self):
        state = make_state(n=30, d1=5, d2=4)
        with pytest.raises(ContractViolationError):
            state.ingest_a_rows(28, np.ones((3, 5)))
        with pytest.raises(ContractViolationError):
            state.ingest_b_rows(0, np.ones((3, 5)))
        with pytest.raises(ContractViolationError):
            state.ingest_a_columns(4, np.ones((30, 2)))
        with pytest.raises(ContractViolationError):
            state.ingest_b_columns(-1, np.ones((30, 1)))
        with pytest.raises(ContractViolationError):
            state.ingest_b_columns(0, np.ones((29, 1)))
        with pytest.raises(ContractViolationError):
            state.ingest_a_rows(30, np.ones((1, 5)))


class TestQuery:
    def test_null_matrices_leave_debiased_gram(self):
        # With no data the estimate is exactly s^2 (Oe.T Oe / r - I~);
        # its Frobenius norm stays below s^2 sqrt(n) alpha at rate >= 1-beta.
        n, d1, d2 = 16, 4, 4
        violations = 0
        trials = 200
        for seed in range(trials):
            state = new_matprod(n, d1, d2, BUDGET, ACC, seed=seed)
            est = state.product_query()
            oe = state.sketcher.column_block(0, min(d1, d2))
            expect = state.s**2 * (oe.T @ oe / state.r - np.eye(min(d1, d2)))
            assert np.linalg.norm(est - expect) <= 1e-9 * state.s**2
            if np.linalg.norm(est) > state.s**2 * np.sqrt(n) * ACC.alpha:
                violations += 1
        assert violations / trials <= binomial_allowed(ACC.beta, trials)

    def test_estimate_tracks_exact_product(self):
        rng = np.random.default_rng(6)
        n, d1, d2 = 40, 6, 5
        a = rng.standard_normal((n, d1))
        b = rng.standard_normal((n, d2))
        state = make_state(n, d1, d2, seed=6)
        for j in range(d1):
            state.ingest_a_columns(j, a[:, [j]])
        for j in range(d2):
            state.ingest_b_columns(j, b[:, [j]])
        err = np.linalg.norm(state.product_query() - exact_product(a, b))
        bound = ACC.alpha * np.linalg.norm(a) * np.linalg.norm(b) + state.s**2 * np.sqrt(n) * ACC.alpha
        assert err <= bound

    def test_partial_identity_for_rectangular(self):
        state = make_state(n=20, d1=4, d2=2, seed=7)
        est = state.product_query()
        assert est.shape == (4, 2)


class TestMergeAndSpace:
    def test_sharded_ingestion_merges(self):
        rng = np.random.default_rng(8)
        n, d1, d2 = 24, 6, 4
        a = rng.standard_normal((n, d1))
        b = rng.standard_normal((n, d2))
        whole = make_state(n, d1, d2, seed=8)
        shard1 = make_state(n, d1, d2, seed=8)
        shard2 = make_state(n, d1, d2, seed=8)
        for j in range(d1):
            whole.ingest_a_columns(j, a[:, [j]])
            (shard1 if j % 2 else shard2).ingest_a_columns(j, a[:, [j]])
        for j in range(d2):
            whole.ingest_b_columns(j, b[:, [j]])
            (shard2 if j % 2 else shard1).ingest_b_columns(j, b[:, [j]])
        merged = shard1.merge(shard2)
        scale = np.linalg.norm(whole.ya)
        assert np.linalg.norm(merged.ya - whole.ya) <= 1e-10 * scale
        assert np.linalg.norm(merged.product_query() - whole.product_query()) <= 1e-9 * scale

    def test_merge_keeps_an_overridden_lift(self):
        rng = np.random.default_rng(11)
        n, d1, d2 = 24, 3, 2
        a, b = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        whole, shard1, shard2 = (
            new_matprod(n, d1, d2, BUDGET, ACC, 11, s_override=1.5, enforce_guard=False)
            for _ in range(3)
        )
        whole.ingest_a_rows(0, a)
        whole.ingest_b_rows(0, b)
        shard1.ingest_a_rows(0, a[:10])
        shard1.ingest_b_rows(0, b[:10])
        shard2.ingest_a_rows(10, a[10:])
        shard2.ingest_b_rows(10, b[10:])
        merged = shard1.merge(shard2)
        assert merged.s == whole.s
        want = whole.product_query()
        assert np.linalg.norm(merged.product_query() - want) <= 1e-12 * np.linalg.norm(want)

    def test_merge_builds_no_sketcher(self, monkeypatch):
        rng = np.random.default_rng(12)
        shard1, shard2 = make_state(seed=12), make_state(seed=12)
        shard1.ingest_a_rows(0, rng.standard_normal((30, 5)))
        shard2.ingest_b_rows(0, rng.standard_normal((30, 4)))
        before = shard1.ya.copy(), shard2.yb.copy()
        built = []
        original = GaussianSketcher.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(GaussianSketcher, "__init__", spy)
        merged = shard1.merge(shard2)
        assert built == []
        assert merged.sketcher is shard1.sketcher
        assert np.array_equal(shard1.ya, before[0])
        assert np.array_equal(shard2.yb, before[1])

    def test_merge_refuses_different_lifts(self):
        shard1, shard2 = (
            new_matprod(30, 5, 4, BUDGET, ACC, 0, s_override=s, enforce_guard=False)
            for s in (1.5, 2.5)
        )
        with pytest.raises(ContractViolationError, match="lifts"):
            shard1.merge(shard2)

    def test_space_entries(self):
        state = make_state(n=30, d1=5, d2=4)
        assert state.space_entries() == state.r * (5 + 4)


class TestGuardInvariant:
    def test_inner_product_preservation_rate(self):
        # For fixed unit vectors, the rescaled sketched inner product leaves
        # the +-alpha band at most at the 2 exp(-r alpha^2 / 8) rate.
        r, alpha = 74, 0.5
        rng = np.random.default_rng(10)
        u = rng.standard_normal(30)
        v = rng.standard_normal(30)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        truth = float(u @ v)
        trials = 2000
        violations = 0
        for _ in range(trials):
            omega = rng.standard_normal((r, 30))
            if abs((omega @ u) @ (omega @ v) / r - truth) > alpha:
                violations += 1
        nominal = 2.0 * np.exp(-r * alpha**2 / 8.0)
        assert violations / trials <= binomial_allowed(nominal, trials)

    def test_lifted_spectrum_clears_threshold(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((20, 4))
        state = make_state(n=20, d1=4, d2=4, seed=9)
        lifted = lifted_matrix(a, state.s, state.d)
        gram = lifted.T @ lifted
        expected = state.s**2 * np.eye(4) + a.T @ a
        assert np.linalg.norm(gram - expected) <= 1e-9 * np.linalg.norm(expected)
        report = guard.verify_spectral_guard(
            lifted, guard.sigma_min_psg1(BUDGET, state.r)
        )
        assert report.passed

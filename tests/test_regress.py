import numpy as np
import pytest

from dpsketch import guard, sketch
from dpsketch.errors import BudgetExhaustedError, ContractViolationError
from dpsketch.harness import binomial_allowed, exact_lsq
from dpsketch.matprod import lift_layout, lifted_matrix, new_matprod
from dpsketch.regress import new_regress

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)


def make_state(n=30, d=4, seed=0, **kw):
    return new_regress(n, d, BUDGET, ACC, seed, **kw)


def shrink_tiles(monkeypatch, tile_cols, d=4):
    """Make each projection tile ``tile_cols`` columns wide (None: default)."""
    if tile_cols is not None:
        r = guard.linreg_sketch_dim(ACC, d)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", tile_cols * r)


def rel_diff(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def row_chunks(a, b, step):
    """(i0, a_rows, b_rows) chunks of ``step`` rows covering both matrices."""
    return [(i0, a[i0 : i0 + step], b[i0 : i0 + step]) for i0 in range(0, len(a), step)]


class TestConstruction:
    def test_parameter_delegation(self):
        state = make_state()
        assert state.r == guard.linreg_sketch_dim(ACC, 4)
        assert state.s == pytest.approx(guard.lift_scale_s(BUDGET, state.r), rel=1e-15)

    def test_sketch_shape(self):
        state = make_state(n=30, d=4)
        assert state.ya.data.shape == (state.r, 4)
        assert state.space_entries() == state.r * 4

    def test_long_stream_holds_no_projection(self):
        # r x m = 1031 x 200040 exceeds MAX_SKETCH_ENTRIES, but a regenerating
        # sketcher holds only the sketch and one tile at a time.
        n, d = 100_000, 20
        state = make_state(n, d)
        assert state.r == 1031 and state.r * state.sketcher.m > sketch.MAX_SKETCH_ENTRIES
        assert state.space_entries() == state.r * d
        rows = np.random.default_rng(0).standard_normal((50, d))
        want = state.ya.data + state.sketcher.project(lift_layout(n, d)[1] + 1000, rows)
        state.ingest_rows(1000, rows)
        assert np.array_equal(state.ya.data, want)

    def test_query_allowance_inflation(self):
        base = make_state(n=20, d=3, seed=1)
        multi = make_state(n=20, d=3, seed=1, max_queries=50)
        assert multi.r > base.r


class TestIngestion:
    def test_zero_column_is_lift_only(self):
        state = make_state(seed=2)
        np.testing.assert_array_equal(
            state.ya.data[:, 1], state.s * state.sketcher.column_block(1, 2)[:, 0]
        )

    def test_streamed_equals_batch(self):
        rng = np.random.default_rng(3)
        n, d = 30, 4
        a = rng.standard_normal((n, d))
        state = make_state(n, d, seed=3)
        for j in range(d):
            state.ingest_columns(j, a[:, [j]])
        batch = state.sketcher.omega @ lifted_matrix(a, state.s, d)
        assert np.linalg.norm(state.ya.data - batch) <= 1e-9 * np.linalg.norm(batch)

    def test_turnstile_cancellation(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(30)
        state = make_state(seed=4)
        baseline = state.ya.data.copy()
        state.ingest_columns(0, v[:, None])
        state.ingest_columns(0, -v[:, None])
        assert np.linalg.norm(state.ya.data - baseline) <= 1e-9 * state.s

    def test_row_stream_equals_column_stream(self):
        rng = np.random.default_rng(5)
        n, d = 24, 3
        a = rng.standard_normal((n, d))
        by_col = make_state(n, d, seed=5)
        for j in range(d):
            by_col.ingest_columns(j, a[:, [j]])
        by_row = make_state(n, d, seed=5)
        for i in range(n):
            by_row.ingest_rows(i, a[[i]])
        scale = np.linalg.norm(by_col.ya.data)
        assert np.linalg.norm(by_col.ya.data - by_row.ya.data) <= 1e-10 * scale


class TestBlockIngest:
    @pytest.mark.parametrize("tile_cols", [1, 3, None])
    def test_blocks_equal_rows_and_columns(self, monkeypatch, tile_cols):
        shrink_tiles(monkeypatch, tile_cols)
        rng = np.random.default_rng(10)
        n, d = 23, 4
        a = rng.standard_normal((n, d))
        by_row, by_col = make_state(n, d, seed=10), make_state(n, d, seed=10)
        for i in range(n):
            by_row.ingest_rows(i, a[[i]])
        for j in range(d):
            by_col.ingest_columns(j, a[:, [j]])
        row_blocks, col_blocks = make_state(n, d, seed=10), make_state(n, d, seed=10)
        for i0, i1 in ((0, 5), (5, 17), (17, 23)):
            row_blocks.ingest_rows(i0, a[i0:i1])
        col_blocks.ingest_columns(0, a[:, :1])
        col_blocks.ingest_columns(1, a[:, 1:])
        for blocked in (row_blocks, col_blocks):
            assert rel_diff(blocked.ya.data, by_row.ya.data) <= 1e-12
            assert rel_diff(blocked.ya.data, by_col.ya.data) <= 1e-12

    def test_block_range_and_shape_checks(self):
        state = make_state(n=23, d=4)
        with pytest.raises(ContractViolationError):
            state.ingest_rows(20, np.ones((5, 4)))
        with pytest.raises(ContractViolationError):
            state.ingest_rows(-1, np.ones((2, 4)))
        with pytest.raises(ContractViolationError):
            state.ingest_rows(0, np.ones((2, 3)))
        with pytest.raises(ContractViolationError):
            state.ingest_columns(3, np.ones((23, 2)))
        with pytest.raises(ContractViolationError):
            state.ingest_columns(0, np.ones((22, 2)))
        with pytest.raises(ContractViolationError):
            state.ingest_rows(23, np.ones((1, 4)))


class TestQueryMany:
    def _ingested(self, n=23, d=4, seed=11, **kw):
        rng = np.random.default_rng(seed)
        state = make_state(n, d, seed=seed, **kw)
        state.ingest_rows(0, rng.standard_normal((n, d)))
        return state, rng.standard_normal((n, 5))

    @pytest.mark.parametrize("tile_cols", [1, 3, None])
    def test_equals_column_by_column_query(self, monkeypatch, tile_cols):
        shrink_tiles(monkeypatch, tile_cols)
        state, b = self._ingested()
        many = state.query_many(b)
        assert many.shape == (4, 5)
        for j in range(5):
            assert rel_diff(many[:, j], state.query_many(b[:, [j]])[:, 0]) <= 1e-12

    def test_charges_q_queries(self):
        state, b = self._ingested(max_queries=5)
        state.query_many(b[:, :3])
        assert state.queries_answered == 3
        want = guard.compose(BUDGET.eps, BUDGET.delta, 3, 1e-6)
        got = state.composed_budget(1e-6)
        assert (got.eps, got.delta) == (want.eps, want.delta)
        state.query_many(b[:, 3:])
        assert state.queries_answered == 5
        with pytest.raises(BudgetExhaustedError):
            state.query_many(b[:, [0]])

    def test_refuses_before_answering_any_column(self, monkeypatch):
        from dpsketch import numerics

        state, b = self._ingested(max_queries=4)
        state.query_many(b[:, [0]])
        solves = []
        monkeypatch.setattr(numerics, "lstsq", lambda *a, **k: solves.append(a))
        with pytest.raises(BudgetExhaustedError):
            state.query_many(b[:, :4])
        assert state.queries_answered == 1 and solves == []

    def test_ill_conditioned_design_solved_on_the_sketch(self):
        # cond(Ya) ~ 1e4: a solve through the Gram matrix or its normal
        # system would see 1e8 or 1e16 and lose every digit.
        rng = np.random.default_rng(13)
        n, d = 200, 4
        q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        state = new_regress(n, d, BUDGET, ACC, 5, s_override=0.0, enforce_guard=False)
        state.ingest_rows(0, q * np.array([1.0, 1.0, 1.0, 1e-4]))
        b = rng.standard_normal((n, 3))
        _m, lo = lift_layout(n, d)
        want = np.linalg.lstsq(state.ya.data, state.sketcher.project(lo, b), rcond=None)[0]
        assert rel_diff(state.query_many(b), want) <= 1e-10

    def test_shape_contract(self):
        state, _ = self._ingested()
        with pytest.raises(ContractViolationError):
            state.query_many(np.zeros((22, 2)))
        with pytest.raises(ContractViolationError):
            state.query_many(np.zeros(23))


class TestIngestAndQuery:
    def _inputs(self, n=23, d=4, q=5, seed=14):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, d)), rng.standard_normal((n, q))

    def _two_pass(self, a, b):
        state = make_state(*a.shape, seed=14)
        state.ingest_rows(0, a)
        return state, state.query_many(b)

    @pytest.mark.parametrize("tile_cols", [3, None])
    def test_one_chunk_equals_ingest_then_query_bit_for_bit(self, monkeypatch, tile_cols):
        shrink_tiles(monkeypatch, tile_cols)
        a, b = self._inputs()
        want_state, want = self._two_pass(a, b)
        state = make_state(*a.shape, seed=14)
        got = state.ingest_and_query([(0, a, b)])
        assert np.array_equal(state.ya.data, want_state.ya.data)
        assert np.array_equal(got, want)
        assert state.queries_answered == want_state.queries_answered == 5

    @pytest.mark.parametrize("q", [1, 9])  # q = 9 exceeds d = 4
    @pytest.mark.parametrize("step, tile_cols", [(5, 3), (7, 3), (1, None), (10, 1)])
    def test_chunks_agree_with_ingest_then_query(self, monkeypatch, q, step, tile_cols):
        shrink_tiles(monkeypatch, tile_cols)
        a, b = self._inputs(q=q)
        want_state, want = self._two_pass(a, b)
        state = make_state(*a.shape, seed=14)
        got = state.ingest_and_query(row_chunks(a, b, step))
        assert got.shape == (4, q)
        assert rel_diff(state.ya.data, want_state.ya.data) <= 1e-12
        assert rel_diff(got, want) <= 1e-12

    def test_sketch_of_queries_is_working_memory(self):
        a, b = self._inputs()
        state = make_state(*a.shape, seed=14)
        state.ingest_and_query(row_chunks(a, b, 5))
        assert state.space_entries() == state.r * 4

    def test_ceiling_refused_at_the_first_chunk(self, monkeypatch):
        from dpsketch import numerics

        a, b = self._inputs()
        state = make_state(*a.shape, seed=14, max_queries=5)
        state.query_many(b[:, [0]])
        before = state.ya.data.copy()
        solves = []
        monkeypatch.setattr(numerics, "lstsq", lambda *args: solves.append(args))
        with pytest.raises(BudgetExhaustedError):
            state.ingest_and_query(row_chunks(a, b, 5))
        assert np.array_equal(state.ya.data, before)
        assert state.queries_answered == 1 and solves == []

    @pytest.mark.parametrize("order", [
        [0, 10, 20],  # rows 5-9 and 15-19 missing
        [0, 5, 10, 15],  # rows 20-22 missing
        [5, 0, 10, 15, 20],  # out of order
        [0, 5, 5, 10, 15, 20],  # overlapping
        [],  # no chunk at all
    ], ids=["gap", "short", "out-of-order", "overlap", "empty"])
    def test_chunks_must_cover_rows_in_order(self, order):
        a, b = self._inputs()
        chunks = {chunk[0]: chunk for chunk in row_chunks(a, b, 5)}
        state = make_state(*a.shape, seed=14)
        with pytest.raises(ContractViolationError, match="chunk"):
            state.ingest_and_query(chunks[i0] for i0 in order)
        assert state.queries_answered == 0

    @pytest.mark.parametrize("a_rows, b_rows", [(5, 4), (4, 5)])
    def test_chunk_pair_row_counts_must_match(self, a_rows, b_rows):
        a, b = self._inputs()
        state = make_state(*a.shape, seed=14)
        before = state.ya.data.copy()
        with pytest.raises(ContractViolationError, match="row counts differ"):
            state.ingest_and_query([(0, a[:a_rows], b[:b_rows])])
        assert np.array_equal(state.ya.data, before)

    def test_query_count_fixed_by_the_first_chunk(self):
        a, b = self._inputs()
        chunks = row_chunks(a, b, 10)
        chunks[1] = (10, a[10:20], b[10:20, :3])
        with pytest.raises(ContractViolationError, match="row length 3, expected 5"):
            make_state(*a.shape, seed=14).ingest_and_query(chunks)


class TestMerge:
    def _shards(self, n=24, d=3, seed=15, split=10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d))
        whole, shard1, shard2 = (make_state(n, d, seed=seed) for _ in range(3))
        whole.ingest_rows(0, a)
        shard1.ingest_rows(0, a[:split])
        shard2.ingest_rows(split, a[split:])
        return whole, shard1, shard2

    @pytest.mark.parametrize("split", [1, 10, 23])
    def test_sharded_rows_merge_to_the_whole_stream(self, split):
        whole, shard1, shard2 = self._shards(split=split)
        merged = shard1.merge(shard2)
        assert rel_diff(merged.ya.data, whole.ya.data) <= 1e-10
        b = np.random.default_rng(16).standard_normal((24, 2))
        assert rel_diff(merged.query_many(b), whole.query_many(b)) <= 1e-10
        assert merged.space_entries() == whole.space_entries()

    def test_sharded_columns_merge_to_the_whole_stream(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((24, 3))
        whole, shard1, shard2 = (make_state(24, 3, seed=17) for _ in range(3))
        whole.ingest_columns(0, a)
        shard1.ingest_columns(0, a[:, :1])
        shard2.ingest_columns(1, a[:, 1:])
        assert rel_diff(shard1.merge(shard2).ya.data, whole.ya.data) <= 1e-10

    def test_plain_sketch_sum_counts_the_lift_twice(self):
        # Negative control: summing the shards' sketches without removing
        # one lift copy is off by about the lift itself.
        whole, shard1, shard2 = self._shards()
        summed = sketch.merge(shard1.ya, shard2.ya)
        assert rel_diff(summed.data, whole.ya.data) > 0.5

    def test_refuses_shards_that_answered_queries(self):
        _whole, shard1, shard2 = self._shards()
        shard2.query_many(np.zeros((24, 1)))
        for x, y in ((shard1, shard2), (shard2, shard1)):
            with pytest.raises(ContractViolationError, match="answered queries"):
                x.merge(y)

    def test_refuses_other_seeds_lifts_and_mechanisms(self):
        state = make_state(24, 3, seed=15)
        others = [
            make_state(24, 3, seed=16),
            new_regress(24, 3, BUDGET, ACC, 15, s_override=2.5, enforce_guard=False),
            new_matprod(24, 3, 3, BUDGET, ACC, 15),
        ]
        for other in others:
            with pytest.raises(ContractViolationError):
                state.merge(other)


class TestQuery:
    def test_zero_rhs_gives_zero_solution(self):
        for seed in range(100):
            state = make_state(n=20, d=3, seed=seed)
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((20, 3))
            for j in range(3):
                state.ingest_columns(j, a[:, [j]])
            x = state.query_many(np.zeros((20, 1)))
            assert np.linalg.norm(x) <= 1e-12

    def test_consistent_system_with_dominant_design(self):
        # When the design dwarfs the lift the ridge bias vanishes and the
        # consistent system is solved to within the additive allowance.
        violations = 0
        trials = 50
        for seed in range(trials):
            state = make_state(n=25, d=3, seed=seed)
            rng = np.random.default_rng(200 + seed)
            a = 1e4 * state.s * rng.standard_normal((25, 3))
            x0 = rng.standard_normal(3)
            b = a @ x0
            for j in range(3):
                state.ingest_columns(j, a[:, [j]])
            x = state.query_many(b[:, None])[:, 0]
            tau = state.s**2 * np.sqrt(25) * ACC.alpha
            if np.linalg.norm(a @ x - b) > tau:
                violations += 1
        assert violations / trials <= binomial_allowed(ACC.beta, trials)

    def test_ridge_equivalence_of_lifted_problem(self):
        # Infinite-sketch limit: exact least squares on the lifted design
        # equals closed-form ridge with penalty s^2.
        rng = np.random.default_rng(6)
        n, d = 20, 4
        a = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        state = make_state(n, d, seed=6)
        lifted = lifted_matrix(a, state.s, d)
        m, lo = lift_layout(n, d)
        b_lifted = np.zeros(m)
        b_lifted[lo:] = b
        x_exact = exact_lsq(lifted, b_lifted)
        x_ridge = np.linalg.solve(a.T @ a + state.s**2 * np.eye(d), a.T @ b)
        assert np.linalg.norm(x_exact - x_ridge) <= 1e-8 * max(np.linalg.norm(x_ridge), 1e-300)

    def test_query_length_contract(self):
        state = make_state()
        with pytest.raises(ContractViolationError):
            state.query_many(np.zeros((7, 1)))

    def test_query_ceiling(self):
        state = make_state(n=20, d=3, seed=7, max_queries=2)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 3))
        for j in range(3):
            state.ingest_columns(j, a[:, [j]])
        state.query_many(rng.standard_normal((20, 1)))
        state.query_many(rng.standard_normal((20, 1)))
        with pytest.raises(BudgetExhaustedError):
            state.query_many(rng.standard_normal((20, 1)))

    def test_composed_budget_accounting(self):
        state = make_state(n=20, d=3, seed=8)
        a = np.random.default_rng(8).standard_normal((20, 3))
        for j in range(3):
            state.ingest_columns(j, a[:, [j]])
        state.query_many(np.zeros((20, 1)))
        state.query_many(np.zeros((20, 1)))
        reported = state.composed_budget(1e-6)
        want = guard.compose(BUDGET.eps, BUDGET.delta, 2, 1e-6)
        assert reported.eps == want.eps and reported.delta == want.delta


class TestNearIsometry:
    def test_embedded_orthonormal_blocks(self):
        # Spectral deviation of the sketched Gram on random orthonormal
        # d-frames in the lifted space stays within alpha at rate >= 1-beta.
        n, d = 10, 4
        state = make_state(n, d, seed=9)
        m = 2 * (n + d)
        trials = 100
        violations = 0
        rng = np.random.default_rng(9)
        for _ in range(trials):
            omega = rng.standard_normal((state.r, m))
            u, _ = np.linalg.qr(rng.standard_normal((m, d)))
            gram = (omega @ u).T @ (omega @ u) / state.r
            if np.linalg.norm(gram - np.eye(d), ord=2) > ACC.alpha:
                violations += 1
        assert violations / trials <= binomial_allowed(ACC.beta, trials)

"""One projection walk per row stream.

``sketch._project_stream`` walks a column range once and reads the row
stream's chunks as its tiles reach them; ``project_blocks`` is that walk
over one in-memory chunk. Multiply (``MatProdState.ingest_stream``) and
regression (``RegressState.ingest_and_query``) sketch their whole stream in
one such walk, so their sketches do not depend on how the stream is
chunked, bit for bit, on either walk path.
"""
import tracemalloc
from contextvars import ContextVar

import numpy as np
import pytest

from dpsketch import guard, sketch
from dpsketch.errors import ContractViolationError
from dpsketch.matprod import new_matprod
from dpsketch.regress import new_regress
from dpsketch.sketch import GaussianSketcher

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)
N, D1, D2, Q = 90, 5, 3, 4


@pytest.fixture(params=[False, True], ids=["serial", "two-thread"])
def split(request, monkeypatch):
    # Each walk path in turn, picked by the variable the release scope sets.
    monkeypatch.setattr(sketch, "_split_walks", ContextVar("split_walks", default=request.param))
    return request.param


@pytest.fixture(autouse=True)
def small_tiles(monkeypatch):
    # Walk tiles of 4 columns at the regression r of 258 and of 13 at the
    # multiply r of 74 (half of per_tile(r), 8 and 27), so the 90-row
    # streams span several tiles.
    monkeypatch.setattr(sketch, "TILE_ENTRIES", 8 * 258)


def _chunkings(n, seed, count=6):
    """Row counts of chunkings of n rows: 1-row chunks, and seeded random
    ones of 1 to 20 rows, which cut tiles wherever they fall."""
    rng = np.random.default_rng(seed)
    out = [[1] * n]
    for _ in range(count):
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, 21)))
        sizes[-1] -= sum(sizes) - n
        out.append(sizes)
    return out


def _chunks(sizes, *streams):
    """(i0, rows of each stream) in chunks of ``sizes`` rows."""
    i0, out = 0, []
    for k in sizes:
        out.append((i0, *(x[i0 : i0 + k] for x in streams)))
        i0 += k
    return out


def _inputs(seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N, D1)), rng.standard_normal((N, D2)), rng.standard_normal((N, Q))


class TestChunkingInvariance:
    def test_the_walk_gives_the_one_chunk_products(self, split):
        sk = GaussianSketcher(5, 74, 2 * N)
        a, b, _ = _inputs()
        want = sk.project_blocks(7, [a, b])
        for sizes in _chunkings(N, 1):
            got = sketch._project_stream(sk, 7, 7 + N, [c[1:] for c in _chunks(sizes, a, b)])
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w)

    def test_multiply_sketches_do_not_depend_on_the_chunking(self, split):
        a, b, _ = _inputs()
        one = new_matprod(N, D1, D2, BUDGET, ACC, 9)
        one.ingest_stream([(0, a, b)])
        per_chunk_differs = []
        for sizes in _chunkings(N, 2):
            state = new_matprod(N, D1, D2, BUDGET, ACC, 9)
            state.ingest_stream(_chunks(sizes, a, b))
            assert np.array_equal(state.ya, one.ya) and np.array_equal(state.yb, one.yb)
            assert np.array_equal(state.product_query(), one.product_query())
            # Negative control: a walk per chunk, as ingest_rows makes it.
            old = new_matprod(N, D1, D2, BUDGET, ACC, 9)
            for i0, a_rows, b_rows in _chunks(sizes, a, b):
                old.ingest_rows(i0, a_rows, b_rows)
            per_chunk_differs.append(not np.array_equal(old.ya, one.ya))
        assert all(per_chunk_differs)

    def test_regress_answers_do_not_depend_on_the_chunking(self, split):
        a, _, queries = _inputs()
        one = new_regress(N, D1, BUDGET, ACC, 9)
        want = one.ingest_and_query([(0, a, queries)])
        per_chunk_differs = []
        for sizes in _chunkings(N, 3):
            state = new_regress(N, D1, BUDGET, ACC, 9)
            got = state.ingest_and_query(_chunks(sizes, a, queries))
            assert np.array_equal(state.ya, one.ya) and np.array_equal(got, want)
            old = new_regress(N, D1, BUDGET, ACC, 9)
            for i0, rows, _q in _chunks(sizes, a, queries):
                old.ingest_rows(i0, rows)
            per_chunk_differs.append(not np.array_equal(old.ya, one.ya))
        assert all(per_chunk_differs)

    def test_the_stream_equals_ingest_rows_of_the_whole(self, split):
        a, b, _ = _inputs()
        whole, streamed = (new_matprod(N, D1, D2, BUDGET, ACC, 4) for _ in range(2))
        whole.ingest_rows(0, a, b)
        streamed.ingest_stream(_chunks(_chunkings(N, 4)[1], a, b))
        assert np.array_equal(streamed.ya, whole.ya) and np.array_equal(streamed.yb, whole.yb)


class TestChecks:
    @pytest.mark.parametrize("chunks, message", [
        (lambda a, b: [(0, a[:40], b[:40]), (50, a[50:], b[50:])], "chunk at row 50, expected row 40"),
        (lambda a, b: [(0, a[:40], b[:40])], "chunks end at row 40, expected 90"),
        (lambda a, b: [], "chunks end at row 0, expected 90"),
        (lambda a, b: [(0, a, b), (90, a[:1], b[:1])], r"rows \[90, 91\) outside \[0, 90\)"),
        (lambda a, b: [(0, a[:40], b[:40]), (40, a[40:], b[40:, :2])], "row length 2, expected 3"),
        (lambda a, b: [(0, a[:40], b[:40]), (40, a[40:], b[41:])], "row counts differ"),
        (lambda a, b: [(0, a[:40], b[:40]), (40, a[40:])], "chunk of 1 row blocks, expected 2"),
    ], ids=["gap", "short", "empty", "past-n", "width", "row-counts", "one-block"])
    def test_a_refused_stream_leaves_the_sketches_unchanged(self, chunks, message):
        a, b, _ = _inputs()
        state = new_matprod(N, D1, D2, BUDGET, ACC, 4)
        state.ingest_rows(0, a[:5], b[:5])
        before = state.ya.copy(), state.yb.copy()
        with pytest.raises(ContractViolationError, match=message):
            state.ingest_stream(chunks(a, b))
        assert np.array_equal(state.ya, before[0]) and np.array_equal(state.yb, before[1])

    def test_a_bad_first_chunk_generates_nothing(self, tile_calls):
        a, b, _ = _inputs()
        state = new_matprod(N, D1, D2, BUDGET, ACC, 4)
        tile_calls.clear()
        with pytest.raises(ContractViolationError, match="row length"):
            state.ingest_stream([(0, a[:, :2], b)])
        assert tile_calls == []

    def test_the_walk_checks_its_own_chunks(self):
        sk = GaussianSketcher(5, 74, 30)
        x = np.ones((10, 2))
        with pytest.raises(ContractViolationError, match="chunks end at column 8, expected 10"):
            sketch._project_stream(sk, 0, 10, [[x[:8]]])
        with pytest.raises(ContractViolationError, match="chunks run past column 10"):
            sketch._project_stream(sk, 0, 10, [[x[:8]], [x[:3]]])
        with pytest.raises(ContractViolationError, match="chunks run past column 10"):
            sketch._project_stream(sk, 0, 10, [[x], [x[:1]]])
        with pytest.raises(ContractViolationError, match=r"block widths \[3\], expected \[2\]"):
            sketch._project_stream(sk, 0, 10, [[x[:4]], [np.ones((6, 3))]])
        with pytest.raises(ContractViolationError, match="outside"):
            sketch._project_stream(sk, 25, 35, [[x]])
        # Empty chunks anywhere are no rows at all.
        empty = [x[:0]]
        got = sketch._project_stream(sk, 0, 10, [empty, [x[:4]], empty, [x[4:]], empty])
        assert np.array_equal(got[0], sk.project_blocks(0, [x])[0])


def _rejoined(chunks, width):
    # Negative control: a stream re-cut at tile boundaries by joining each
    # chunk's unread rows to the whole next chunk, a copy of a chunk each.
    rest = None
    for (x,) in chunks:
        x = x if rest is None else np.concatenate([rest, x])
        cut = len(x) - len(x) % width
        yield [x[:cut]]
        rest = x[cut:]
    if rest is not None and len(rest):
        yield [rest]


class TestCarry:
    @staticmethod
    def _peak(walk):
        tracemalloc.start()
        try:
            walk()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_the_walk_carries_at_most_one_tile_of_rows(self, monkeypatch):
        # At r = 8 a walk tile is 4,096 columns, and a tile of the stream's
        # rows of 16 columns is 512 KiB, more than the walk's tile buffer
        # (256 KiB) or one sub-block's Box-Muller temporaries (385 KiB). The
        # 50,000 rows come in chunks of 1.5 tiles, made before tracing
        # starts, so only the walk's own memory is counted. Over the walk of
        # the same rows as one chunk, which multiplies views and copies
        # none, the chunked walk may hold its carry of one tile of rows.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 1 << 16)
        sk = GaussianSketcher(6, 8, 50_000)
        width = sketch.per_tile(sk.r) // 2
        x = np.random.default_rng(6).standard_normal((50_000, 16))
        chunks = [[x[i : i + width * 3 // 2].copy()] for i in range(0, len(x), width * 3 // 2)]
        tile_rows = 8 * width * x.shape[1]
        one = self._peak(lambda: sk.project_blocks(0, [x]))
        chunked = self._peak(lambda: sketch._project_stream(sk, 0, len(x), chunks))
        rejoined = self._peak(lambda: sketch._project_stream(sk, 0, len(x), _rejoined(chunks, width)))
        assert chunked - one <= tile_rows
        assert rejoined - one > tile_rows
        got = sketch._project_stream(sk, 0, len(x), _rejoined(chunks, width))
        assert np.array_equal(got[0], sketch._project_stream(sk, 0, len(x), chunks)[0])

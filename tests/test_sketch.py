import math
import threading
import tracemalloc
from contextvars import ContextVar

import numpy as np
import pytest

from dpsketch import cli, guard, harness, sketch
from dpsketch.errors import (
    CapacityError, ContractViolationError, NumericFailureError, ParameterDomainError,
)
from dpsketch.lra import LraConfig, new_lra
from dpsketch.matprod import new_matprod
from dpsketch.regress import new_regress
from dpsketch.sketch import GaussianSketcher

from conftest import HELPER

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)


class TestSketcherConstruction:
    def test_same_seed_identical(self):
        a = GaussianSketcher(7, 4, 8)
        b = GaussianSketcher(7, 4, 8)
        assert np.array_equal(a.omega, b.omega)

    def test_different_seed_differs(self):
        a = GaussianSketcher(7, 4, 8)
        b = GaussianSketcher(8, 4, 8)
        assert not np.array_equal(a.omega, b.omega)

    def test_moment_bounds(self):
        sk = GaussianSketcher(3, 100, 100)
        n = 100 * 100
        assert abs(sk.omega.mean()) <= 5 / np.sqrt(n)
        assert abs(sk.omega.var() - 1.0) <= 10 / np.sqrt(n)

    @pytest.mark.parametrize(
        "r, m", [(101, 3000), (74, 40_100), (1031, 4040)], ids=["lra", "multiply", "regress"]
    )
    def test_benchmark_identity_moments(self, monkeypatch, r, m):
        # The benchmark's sketcher shapes at seed 0, regenerated tile by tile
        # by one project_blocks pass; each tile is summed as it is made.
        sk = GaussianSketcher(0, r, m)
        total = total_sq = 0.0
        original = sketch._tile

        def summing(sk, bg, j0, j1, buf):
            nonlocal total, total_sq
            tile = original(sk, bg, j0, j1, buf)
            total += float(tile.sum())
            total_sq += float(np.square(tile).sum())
            return tile

        monkeypatch.setattr(sketch, "_tile", summing)
        sk.project_blocks(0, [np.zeros((m, 1))])
        n = r * m
        mean = total / n
        var = total_sq / n - mean * mean
        assert abs(mean) <= 5 / np.sqrt(n)
        assert abs(var - 1.0) <= 10 / np.sqrt(n)

    def test_capacity_error(self):
        # One mode: construction generates nothing, so a 2^28-entry shape
        # builds and only a request for that many entries is refused.
        sk = GaussianSketcher(0, 1 << 14, 1 << 14)
        with pytest.raises(CapacityError):
            sk.omega

    def test_regenerating_sketcher_caps_each_block(self):
        # Nothing r x m is held when omega is regenerated, so the cap applies
        # to each requested block, not to the shape.
        sk = GaussianSketcher(0, 1 << 14, 1 << 14)
        assert sk.column_block(5, 7).shape == (1 << 14, 2)
        with pytest.raises(CapacityError):
            sk.omega

    def test_bad_dims(self):
        with pytest.raises(ContractViolationError):
            GaussianSketcher(0, 0, 5)

    def test_width_past_32_bits(self):
        # The identity is a plain tuple, so no field is packed into a fixed
        # width: a sketcher 2**32 columns wide builds and serves its last column.
        sk = GaussianSketcher(0, 1, 2**32)
        assert sk.column_block(2**32 - 1, 2**32).shape == (1, 1)

    def test_fingerprint_is_the_identity(self):
        # The seed is the whole 128-bit Philox key, carried unmasked.
        for seed, r, m in ((7, 4, 8), ((1 << 64) + 3, 2, 9), ((1 << 128) - 1, 3, 5)):
            assert GaussianSketcher(seed, r, m).fingerprint == (seed, r, m)

    @pytest.mark.parametrize("seed", [-1, 1 << 128])
    def test_seed_outside_128_bits_is_refused(self, seed):
        with pytest.raises(ParameterDomainError, match="seed must be in"):
            GaussianSketcher(seed, 3, 5)

    @pytest.mark.parametrize("masked", [False, True], ids=["128-bit-key", "64-bit-mask"])
    def test_seed_above_64_bits_is_another_projection(self, monkeypatch, masked):
        # Negative control: with the key masked to 64 bits, as it was before
        # it was widened, seeds 5 and 2**64 + 5 alias.
        if masked:
            original = sketch._philox
            monkeypatch.setattr(sketch, "_philox",
                                lambda seed, offset: original(seed & (2**64 - 1), offset))
        same = np.array_equal(GaussianSketcher(5, 4, 8).omega,
                              GaussianSketcher((1 << 64) + 5, 4, 8).omega)
        assert same == masked


def _unfixed_philox(seed, offset):
    # Negative control: the stream as it was opened before numpy integer
    # offsets were made Python ints; advance cannot take a numpy integer.
    if offset % 4:
        raise ContractViolationError(f"word offset {offset} is not block-aligned")
    bg = np.random.Philox(key=seed)
    if offset:
        bg.advance(offset // 4)
    return bg


class TestNumpyIntegerStarts:
    """A start index given as a numpy integer generates what a Python int does."""

    @staticmethod
    def _outputs(start):
        # column_block, a project_blocks pass, a low-rank block ingest and
        # a lifted-sketch block ingest, all starting at ``start``.
        rng = np.random.default_rng(28)
        sk = GaussianSketcher(0, 5, 100)
        state = new_lra(LraConfig(n=20, d=12, k=2, budget=BUDGET, seed=28))
        state.ingest_rows(start, rng.standard_normal((4, 12)))
        lifted = new_regress(20, 3, BUDGET, ACC, 28)
        lifted.ingest_rows(start, rng.standard_normal((4, 3)))
        x = rng.standard_normal((10, 2))
        return [sk.column_block(start, start + 10), sk.project_blocks(start, [x])[0],
                state.y, lifted.ya]

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    def test_same_bits_as_a_python_int(self, kind):
        want = self._outputs(3)
        for got, expected in zip(self._outputs(kind(3)), want):
            assert got.tobytes() == expected.tobytes()

    def test_negative_control_raises_under_the_unfixed_stream(self, monkeypatch):
        monkeypatch.setattr(sketch, "_philox", _unfixed_philox)
        with pytest.raises(OverflowError):
            self._outputs(np.int64(3))


def _project(sk, x):
    """omega[:, :k] @ x for one k-row block x, through project_blocks."""
    return sk.project_blocks(0, [x])[0]


class TestProjectionOps:
    """The paper's first generator, omega @ v, on blocks of vectors."""

    def test_psg1_zero(self):
        sk = GaussianSketcher(1, 4, 6)
        np.testing.assert_array_equal(_project(sk, np.zeros((6, 3))), np.zeros((4, 3)))

    def test_psg1_basis_vector(self):
        sk = GaussianSketcher(2, 4, 6)
        for i in range(6):
            e = np.zeros((6, 1))
            e[i] = 1.0
            np.testing.assert_allclose(_project(sk, e)[:, 0], sk.omega[:, i], atol=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_psg_linearity(self, seed):
        rng = np.random.default_rng(seed)
        sk = GaussianSketcher(seed, 5, 8)
        u, v = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
        a, b = rng.uniform(-2, 2, size=2)
        lhs = _project(sk, a * u + b * v)
        rhs = a * _project(sk, u) + b * _project(sk, v)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)

    def test_psg2_expectation_is_identity(self):
        # E[omega.T omega] = r I, so the r-rescaled reprojection is unbiased.
        v = np.array([1.0, -2.0, 0.5, 3.0])
        trials = 10_000
        r = 4
        total = np.zeros(4)
        total_sq = np.zeros(4)
        for t in range(trials):
            om = GaussianSketcher(40_000 + t, r, 4).omega
            out = om.T @ (om @ v) / r
            total += out
            total_sq += out * out
        mean = total / trials
        stderr = np.sqrt((total_sq / trials - mean**2) / trials)
        assert np.all(np.abs(mean - v) <= 3 * stderr)

    def test_length_mismatch(self):
        # A block that runs past the last column is refused.
        sk = GaussianSketcher(1, 4, 6)
        with pytest.raises(ContractViolationError):
            _project(sk, np.zeros((7, 1)))
        with pytest.raises(ContractViolationError):
            sk.project_blocks(2, [np.zeros((5, 1))])


class TestSketchUpdates:
    """Turnstile updates of a plain r x c sketch: each adds omega @ v into
    one of its columns."""

    @staticmethod
    def _pair(seed=21, r=4, m=6, c=5):
        return GaussianSketcher(seed, r, m), np.zeros((r, c))

    @staticmethod
    def _update(sk, y, col, v):
        y[:, col] += _project(sk, v[:, None])[:, 0]

    def test_cancellation(self):
        sk, y = self._pair()
        v = np.random.default_rng(0).standard_normal(6)
        self._update(sk, y, 2, v)
        self._update(sk, y, 2, -v)
        assert np.linalg.norm(y) <= 1e-12

    def test_update_linearity(self):
        sk, y1 = self._pair()
        _, y2 = self._pair()
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal(6), rng.standard_normal(6)
        self._update(sk, y1, 0, v)
        self._update(sk, y1, 0, w)
        self._update(sk, y2, 0, v + w)
        assert np.allclose(y1, y2, rtol=0, atol=1e-10)

    def test_streamed_equals_batch(self):
        sk, y = self._pair(c=5)
        a = np.random.default_rng(2).standard_normal((6, 5))
        for j in range(5):
            self._update(sk, y, j, a[:, j])
        np.testing.assert_allclose(y, sk.omega @ a, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, _project(sk, a), rtol=1e-12, atol=1e-12)

    def test_fingerprint_mismatch(self):
        # Sketches updated under sketchers of one shape but another seed
        # have equal shapes; only the fingerprint tells them apart.
        a = new_regress(6, 2, BUDGET, ACC, 21)
        b = new_regress(6, 2, BUDGET, ACC, 99)
        a.ingest_columns(0, np.ones((6, 1)))
        b.ingest_columns(0, np.ones((6, 1)))
        assert a.ya.shape == b.ya.shape
        assert a.sketcher.fingerprint != b.sketcher.fingerprint
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ContractViolationError, match="different sketchers"):
                x.merge(y)

    def test_zero_update_is_noop(self):
        sk, y = self._pair()
        self._update(sk, y, 1, np.ones(6))
        before = y.copy()
        self._update(sk, y, 1, np.zeros(6))
        assert np.array_equal(y, before)


class TestMerge:
    """Shards of one stream merge through the state's ``merge``, which sums
    their sketch arrays and keeps one copy of the lift."""

    @staticmethod
    def _state(seed=5, n=12, d=3, **kw):
        return new_regress(n, d, BUDGET, ACC, seed, **kw)

    def test_merge_with_zero(self):
        # Exact without a lift; with one, (ya + lift) - lift rounds.
        for kw, rtol in (({"s_override": 0.0, "enforce_guard": False}, 0.0), ({}, 1e-15)):
            state, empty = self._state(**kw), self._state(**kw)
            state.ingest_columns(0, np.ones((12, 1)))
            merged = state.merge(empty)
            assert np.linalg.norm(merged.ya - state.ya) <= rtol * np.linalg.norm(state.ya)

    def test_merge_commutes(self):
        a, b = self._state(), self._state()
        a.ingest_columns(0, np.arange(12.0)[:, None])
        b.ingest_columns(1, np.ones((12, 1)))
        assert np.array_equal(a.merge(b).ya, b.merge(a).ya)

    def test_sharded_stream_equals_single_pass(self):
        # Updates of the same column land on different shards.
        updates = [
            (j % 3, np.random.default_rng(j).standard_normal(12)) for j in range(12)
        ]
        single = self._state(seed=17)
        for col, v in updates:
            single.ingest_columns(col, v[:, None])
        shards = [self._state(seed=17) for _ in range(4)]
        for idx, (col, v) in enumerate(updates):
            shards[idx % 4].ingest_columns(col, v[:, None])
        combined = shards[0]
        for piece in shards[1:]:
            combined = combined.merge(piece)
        scale = max(np.linalg.norm(single.ya), 1e-30)
        assert np.linalg.norm(combined.ya - single.ya) <= 1e-10 * scale

    def test_mismatch_errors(self):
        # Another sketcher is refused, and so are sketches of another shape:
        # both states share a sketcher, and their (r, 3) and (r, 1) yb
        # arrays would broadcast in a sum.
        with pytest.raises(ContractViolationError, match="different"):
            self._state(seed=5).merge(self._state(seed=6))
        pair = [new_matprod(24, 3, d2, BUDGET, ACC, seed=15) for d2 in (3, 1)]
        assert pair[0].sketcher.fingerprint == pair[1].sketcher.fingerprint
        for x, y in (pair, pair[::-1]):
            with pytest.raises(ContractViolationError, match="shapes"):
                x.merge(y)


class TestTiles:
    """project_blocks walks its range in tiles: one Philox stream per
    generating thread and pass, and one tile buffer (three on two
    threads)."""

    def test_default_tile_budget(self, tile_calls):
        # per_tile(1031) is 63 columns, and a walk's tiles are half that.
        assert sketch.TILE_ENTRIES == 65536
        sk = GaussianSketcher(3, 1031, 4040)
        sk.project_blocks(0, [np.zeros((sk.m, 1))])
        sizes = [r * (j1 - j0) for r, j0, j1 in tile_calls]
        assert max(sizes) == 31 * 1031 and sum(sizes) == sk.r * sk.m

    def test_uneven_tiles_concatenate_bit_exact(self, monkeypatch, tile_calls):
        # Projecting the identity returns the walked tiles side by side:
        # every other term of each product is an exact zero. Tiles of two
        # columns at r = 5, the last one ragged.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 20)
        sk = GaussianSketcher(5, 5, 40)
        (joined,) = sk.project_blocks(3, [np.eye(33)])
        assert [j1 - j0 for _r, j0, j1 in tile_calls] == [2] * 16 + [1]
        assert tile_calls[0][1] == 3 and tile_calls[-1][2] == 36
        assert all(r == 5 for r, _j0, _j1 in tile_calls)
        assert np.array_equal(joined, sk.column_block(3, 36))
        assert np.array_equal(joined, GaussianSketcher(5, 5, 40).omega[:, 3:36])

    def test_one_column_tiles_when_r_exceeds_budget(self, monkeypatch, tile_calls):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 3)
        sk = GaussianSketcher(6, 5, 9)
        (joined,) = sk.project_blocks(0, [np.eye(9)])
        assert [(j0, j1) for _r, j0, j1 in tile_calls] == [(j, j + 1) for j in range(9)]
        assert np.array_equal(joined, sk.omega)

    def test_empty_range_and_range_check(self, tile_calls):
        # An empty range generates nothing, and so does a range outside
        # the projection, which is refused as a whole before any tile.
        sk = GaussianSketcher(1, 4, 6)
        (out,) = sk.project_blocks(2, [np.ones((0, 3))])
        assert np.array_equal(out, np.zeros((4, 3)))
        for j0, k in ((-1, 3), (0, 7), (5, 2)):
            with pytest.raises(ContractViolationError, match="outside"):
                sk.project_blocks(j0, [np.ones((k, 1))])
        assert tile_calls == []
        for j0, j1 in ((-1, 2), (3, 2), (0, 7)):
            with pytest.raises(ContractViolationError, match="outside"):
                sk.column_block(j0, j1)

    @pytest.mark.parametrize(
        "block", [np.ones(3), np.ones((3, 1, 1)), [[1.0], [2.0], [3.0]]], ids=["1-D", "3-D", "list"]
    )
    def test_project_blocks_refuses_a_block_that_is_not_2d(self, tile_calls, block):
        sk = GaussianSketcher(0, 2, 3)
        with pytest.raises(ContractViolationError, match="2-D"):
            sk.project_blocks(0, [block])
        with pytest.raises(ContractViolationError, match="2-D"):
            sk.project_blocks(0, [np.ones((3, 1)), block])
        assert tile_calls == []

    @pytest.mark.parametrize("r", [5, 8], ids=["padded", "unpadded"])
    def test_column_block_is_a_view_of_the_generated_normals(self, r):
        # No copy: the block views the normals in generation order, with or
        # without padding words between columns, and holds omega's values.
        sk = GaussianSketcher(7, r, 12)
        block = sk.column_block(3, 9)
        assert not block.flags.owndata and block.shape == (r, 6)
        assert np.array_equal(block, sk.omega[:, 3:9])

    def test_tiles_come_from_one_walk(self, monkeypatch):
        # A pass is one _tiles walk, and the walk's tiles are its columns in
        # per_tile(r) // 2 steps, each equal to column_block over its range.
        original = sketch._tiles

        def spy(sk, j0, j1):
            walks.append((j0, j1))
            for t0, t1, tile in original(sk, j0, j1):
                assert np.array_equal(tile, sk.column_block(t0, t1))
                tiles.append((t0, t1))
                yield t0, t1, tile

        monkeypatch.setattr(sketch, "TILE_ENTRIES", 16)
        sk = GaussianSketcher(2, 4, 10)
        monkeypatch.setattr(sketch, "_tiles", spy)
        walks, tiles = [], []
        sk.project_blocks(1, [np.ones((7, 2))])
        assert walks == [(1, 8)]
        assert tiles == [(1, 3), (3, 5), (5, 7), (7, 8)]

    def test_project_blocks_share_each_tile(self, monkeypatch, tile_calls):
        # Several blocks over the same columns cost one pass over the tiles,
        # and each result is its own one-block pass bit for bit.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 16)
        sk = GaussianSketcher(2, 4, 10)
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((7, 2)), rng.standard_normal((7, 3))]
        want = [sk.project_blocks(1, [x])[0] for x in blocks]
        tile_calls.clear()
        got = sk.project_blocks(1, blocks)
        assert [(j0, j1) for _r, j0, j1 in tile_calls] == [(1, 3), (3, 5), (5, 7), (7, 8)]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        with pytest.raises(ContractViolationError):
            sk.project_blocks(1, [np.ones((7, 2)), np.ones((6, 2))])

    def test_project_blocks_refuses_no_blocks(self):
        with pytest.raises(ContractViolationError, match="no blocks"):
            GaussianSketcher(0, 2, 3).project_blocks(0, [])

    def test_construction_generates_only_a_stored_projection(self, monkeypatch, tile_calls):
        # No sketcher stores its projection, so construction requests and
        # generates no column: every tile is generated on request.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        GaussianSketcher(9, 5, 23)
        assert tile_calls == []

    @pytest.mark.parametrize("budget", [1, 12, 65536])
    def test_project_matches_dense_product(self, monkeypatch, budget):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", budget)
        sk = GaussianSketcher(4, 5, 40)
        x = np.random.default_rng(4).standard_normal((33, 3))
        want = sk.column_block(3, 36) @ x
        (got,) = sk.project_blocks(3, [x])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_vector_ops_walk_tiles(self, monkeypatch, tile_calls):
        # One-column blocks request at most one tile of omega at a time
        # and agree with products of the full omega.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        om = GaussianSketcher(8, 4, 30).omega
        sk = GaussianSketcher(8, 4, 30)
        tile_calls.clear()
        v = np.random.default_rng(8).standard_normal(30)
        want = om @ v
        got = sk.project_blocks(0, [v[:, None], -v[:, None]])
        for out, sign in zip(got, (1.0, -1.0)):
            assert np.linalg.norm(out[:, 0] - sign * want) <= 1e-12 * np.linalg.norm(want)
        sizes = [r * (j1 - j0) for r, j0, j1 in tile_calls]
        assert sizes and max(sizes) <= sketch.TILE_ENTRIES


# The negative-control walks below step per_tile(r) columns, twice the
# walk's tile: a fresh buffer each then holds more than one tile of
# per_tile(r) columns at once, which the memory bound of a pass catches.


def _fresh_walk(sk, j0, j1):
    # Negative control: a pass of one column_block request per tile, with a
    # stream and a buffer of its own each.
    width = sketch.per_tile(sk.r)
    for t0 in range(j0, j1, width):
        t1 = min(t0 + width, j1)
        yield t0, t1, sk.column_block(t0, t1)


def _fresh_buffer_walk(sk, j0, j1, width=None):
    # Negative control: one stream per pass, but a new buffer for every
    # tile, of per_tile(r) columns unless ``width`` is given.
    width = width or sketch.per_tile(sk.r)
    bg = sketch._philox(sk.seed, j0 * sk._wpc)
    for t0 in range(j0, j1, width):
        t1 = min(t0 + width, j1)
        yield t0, t1, sketch._tile(sk, bg, t0, t1, np.empty((t1 - t0) * sk._wpc))


def _half_fresh_buffer_walk(sk, j0, j1):
    # Negative control: the walk's own tiles of per_tile(r) // 2 columns,
    # each in a new buffer.
    return _fresh_buffer_walk(sk, j0, j1, max(1, sketch.per_tile(sk.r) // 2))


def _reopening_walk(sk, j0, j1):
    # Negative control: one buffer per pass, but every tile reopens the
    # stream at the pass's first column.
    width = min(sketch.per_tile(sk.r), j1 - j0)
    buf = np.empty(width * sk._wpc)
    for t0 in range(j0, j1, width):
        t1 = min(t0 + width, j1)
        yield t0, t1, sketch._tile(sk, sketch._philox(sk.seed, j0 * sk._wpc), t0, t1, buf)


class TestWalk:
    """One _tiles walk per pass: one Philox stream per generating thread,
    one tile buffer (a pool of three on two threads), the same tiles as
    column_block, and the cap of one column_block request."""

    @staticmethod
    def _regress_pass():
        # The regress-dpmt shape: 2,000 columns at r = 1031 (65 walk tiles
        # of 31 columns) applied to two 20-column blocks.
        sk = GaussianSketcher(0, 1031, 2000)
        rng = np.random.default_rng(0)
        return sk, [rng.standard_normal((2000, 20)) for _ in range(2)]

    @staticmethod
    def _buffers(walk):
        # The walk's tiles grouped by the buffer they view, as lists of tile
        # indices, with the size of each group's buffer in columns.
        sk = GaussianSketcher(1, 5, 40)
        tiles = [tile for *_, tile in walk(sk, 3, 40)]
        groups = []
        for i, tile in enumerate(tiles):
            group = next((g for g in groups if np.shares_memory(tiles[g[0]], tile)), None)
            if group is None:
                groups.append(group := [])
            group.append(i)
        bases = []
        for g in groups:
            base = tiles[g[0]]
            while base.base is not None:
                base = base.base
            bases.append(base.size // sk._wpc)
        return groups, bases

    @staticmethod
    def _matches_column_block(walk):
        sk = GaussianSketcher(1, 5, 40)
        joined = np.hstack([tile.copy() for *_, tile in walk(sk, 3, 40)])
        return np.array_equal(joined, sk.column_block(3, 40))

    def _philox_calls(self, monkeypatch):
        # (thread, offset) of each stream a pass from column 3 opens.
        sk, blocks = self._regress_pass()
        calls = []
        original = sketch._philox

        def spy(seed, offset):
            calls.append((threading.current_thread().name, offset))
            return original(seed, offset)

        monkeypatch.setattr(sketch, "_philox", spy)
        sk.project_blocks(3, [block[3:] for block in blocks])
        monkeypatch.setattr(sketch, "_philox", original)
        return sorted(calls)

    def _peak_in_tiles(self):
        sk, blocks = self._regress_pass()
        tracemalloc.start()
        try:
            sk.project_blocks(0, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * sk.r * sketch.per_tile(sk.r))

    def test_consecutive_tiles_share_one_buffer(self, monkeypatch):
        # Serial: all 19 tiles in one buffer of one tile (2 columns at
        # r = 5). Two threads: the same tiles in a pool of three such
        # buffers, whichever thread generated them. No tile gets a fresh
        # buffer on either path.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 24)
        assert self._buffers(sketch._tiles) == ([list(range(19))], [2])
        monkeypatch.setattr(sketch, "_split_walks", ContextVar("split_walks", default=True))
        groups, bases = self._buffers(sketch._tiles)
        assert sorted(sum(groups, [])) == list(range(19)) and bases in ([2, 2], [2, 2, 2])
        for walk in (_fresh_buffer_walk, _fresh_walk):
            groups, _bases = self._buffers(walk)
            assert len(groups) == sum(map(len, groups)) > 3

    def test_a_pass_opens_one_stream(self, monkeypatch):
        # One stream per generating thread, never one per tile, each opened
        # at the pass's first column (3 columns of 1032 words in).
        main = threading.current_thread().name
        assert self._philox_calls(monkeypatch) == [(main, 3 * 1032)]
        monkeypatch.setattr(sketch, "_split_walks", ContextVar("split_walks", default=True))
        assert self._philox_calls(monkeypatch) == sorted([(main, 3 * 1032), (HELPER, 3 * 1032)])
        monkeypatch.setattr(sketch, "_split_walks", ContextVar("split_walks", default=False))
        monkeypatch.setattr(sketch, "_tiles", _fresh_walk)
        assert len(self._philox_calls(monkeypatch)) == 32

    def test_a_pass_holds_one_tile(self, monkeypatch):
        # In tiles of per_tile(r) = 63 columns at r = 1031 (1031 x 63
        # entries), a pass may hold the walk's one buffer (31 columns of
        # 1032 words: 0.49), one 16,384-word sub-block's Box-Muller
        # temporaries (its words, 8,192 order indices, its gathered pairs
        # and one trig array, 384 KiB: 0.76), the two results (2 x 1031 x 20
        # entries: 0.63) and one product of a tile (1031 x 20: 0.32): 2.20
        # in all. Measured: 1.89, against 2.39 for a new buffer per walk
        # tile of 31 columns and 3.40 per tile of 63, each allocated while
        # the last one is still held.
        tile = 8 * 1031 * 63
        bound = (8 * 31 * 1032 + 384 * 1024 + 8 * 2 * 1031 * 20 + 8 * 1031 * 20) / tile
        assert self._peak_in_tiles() < bound
        for walk in (_half_fresh_buffer_walk, _fresh_buffer_walk, _fresh_walk):
            monkeypatch.setattr(sketch, "_tiles", walk)
            assert self._peak_in_tiles() >= bound

    def test_a_two_thread_pass_holds_three_walk_tiles(self, monkeypatch):
        # The same pass on two threads, entered through the variable that the
        # release scope sets. In tiles of 1031 x 63 entries (519,624 bytes),
        # it may hold its pool of three buffers of one walk tile each (3 x 31
        # columns of 1032 words: 1.48), one sub-block's Box-Muller
        # temporaries per thread (the sub-block's 16,384 words, its 8,192
        # order indices, its gathered pairs and one trig array, 384 KiB:
        # 2 x 0.76), the two results (2 x 1031 x 20 entries: 0.63) and one
        # product of a tile (0.32): 3.94 in all. Measured: 3.65, against
        # 5.62-6.08 for a new buffer per tile, allocated while the walk's
        # own and the tiles not yet released are held.
        tile = 8 * 1031 * 63
        bound = (3 * 8 * 31 * 1032 + 2 * 384 * 1024 + 8 * 2 * 1031 * 20 + 8 * 1031 * 20) / tile
        monkeypatch.setattr(sketch, "_split_walks", ContextVar("split_walks", default=True))
        assert self._peak_in_tiles() < bound
        original = sketch._tile

        def fresh_buffer(sk, bg, j0, j1, buf):
            return original(sk, bg, j0, j1, np.empty((j1 - j0) * sk._wpc))

        monkeypatch.setattr(sketch, "_tile", fresh_buffer)
        assert self._peak_in_tiles() >= bound

    def test_the_stream_continues_from_tile_to_tile(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        assert self._matches_column_block(sketch._tiles)
        assert self._matches_column_block(_fresh_buffer_walk)
        assert not self._matches_column_block(_reopening_walk)

    def test_the_walk_refuses_a_column_over_the_cap(self, monkeypatch, tile_calls):
        # r alone exceeds the cap, so the one-column tiles do: refused
        # before anything is generated, as column_block refuses them.
        monkeypatch.setattr(sketch, "MAX_SKETCH_ENTRIES", 4)
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 4)
        sk = GaussianSketcher(0, 5, 3)
        with pytest.raises(CapacityError, match="5x1 exceeds"):
            sk.project_blocks(0, [np.ones((3, 1))])
        with pytest.raises(CapacityError, match="5x1 exceeds"):
            sk.column_block(0, 1)
        assert tile_calls == []


def _scalar_normals(words):
    # Box-Muller written independently of sketch._box_muller: one pair of
    # 64-bit words gives the cos and the sin normal, in that order.
    out = []
    for w0, w1 in zip(words[0::2], words[1::2]):
        u1 = ((w0 >> 11) + 1) * 2.0**-53
        u2 = (w1 >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        out += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    return out


# (seed, r, m, j0, j1, the Philox words of columns [j0, j1), {(row, col): normal})
KNOWN_ANSWERS = [
    pytest.param(
        0, 4, 2, 0, 2,
        [213000021201967259, 4455796210202625458, 2055444239878205049, 10411612076246414556,
         9267267987884836803, 5120919030223861725, 17460660323513034167, 18189711684604811196],
        {(0, 0): 0.15853383451844166, (3, 1): -0.028982948293703865},
        id="seed-0",
    ),
    pytest.param(
        (1 << 63) + 1, 4, 1, 0, 1,
        [15427352783323932975, 2564398840747885779, 1177965655085308409, 18235861618156303230],
        {(0, 0): 0.38395966310610846, (3, 0): -0.1683430469983947},
        id="seed-above-2**63",
    ),
    pytest.param(
        5, 3, 2, 0, 2,
        [13535223855206698129, 10893183200674769480, 3833398344621921443, 8178605492699859198,
         4593217736961924102, 12499342411136185311, 13713093298565872893, 14205111527475193711],
        {(2, 0): -1.6615842807882841, (0, 1): -0.7327526017017558},
        id="r-not-multiple-of-4",
    ),
    pytest.param(
        9, 2, 10, 7, 9,
        [1700775528397178805, 10250454074722429252, 10391399568701391053, 3383864883935919905,
         13984473375468792657, 3332892030833429099, 9724008294923564878, 2869859987804750816],
        {(0, 0): -2.051228590888033, (1, 1): 0.674741440629901},
        id="columns-from-7",
    ),
]


class TestKnownAnswers:
    # Every sketcher regenerates; the one-value ``mode`` keeps the test ids
    # (``[seed-0-regenerated]`` and so on) that name that mode.
    @pytest.mark.parametrize("mode", ["regenerated"])
    @pytest.mark.parametrize("seed, r, m, j0, j1, words, spots", KNOWN_ANSWERS)
    def test_pinned_words_and_normals(self, seed, r, m, j0, j1, words, spots, mode):
        # Each column takes a whole number of Philox blocks; rows past r are
        # padding words that are generated and skipped.
        wpc = 4 * ((r + 3) // 4)
        raw = sketch._raw_words(seed, j0 * wpc, (j1 - j0) * wpc)
        assert [int(w) for w in raw] == words
        # The key is 128 bits wide: a seed 2**64 higher is another stream.
        raw = sketch._raw_words(seed + (1 << 64), j0 * wpc, (j1 - j0) * wpc)
        assert [int(w) for w in raw] != words
        want = np.array(_scalar_normals(words)).reshape(j1 - j0, wpc)[:, :r].T
        got = GaussianSketcher(seed, r, m).column_block(j0, j1)
        assert got.shape == (r, j1 - j0)
        assert np.abs(got - want).max() <= 1e-13
        for (i, j), value in spots.items():
            assert abs(got[i, j] - value) <= 1e-13

    @pytest.mark.parametrize("start", sorted(sketch._GENERATION_ANSWERS))
    def test_generation_answers_are_the_scalar_reference(self, start):
        # The self-test's normals across sub-block boundaries, recomputed by
        # the scalar Box-Muller from the request's own Philox words.
        offset = sketch._GENERATION_OFFSET + start
        aligned = offset - offset % 4
        raw = sketch._raw_words(sketch._GENERATION_SEED, aligned, 8)
        words = [int(w) for w in raw[offset - aligned : offset - aligned + 4]]
        want = sketch._GENERATION_ANSWERS[start]
        assert np.abs(np.array(_scalar_normals(words)) - want).max() <= 1e-13

    def test_a_generation_answer_straddles_the_first_sub_block_boundary(self):
        # Normals i..i+3 straddle the boundary when it falls between them.
        assert any(i < sketch._SUB_BLOCK_WORDS < i + 4 for i in sketch._GENERATION_ANSWERS)

    def test_self_test_runs_once_per_process(self, monkeypatch):
        # After the first construction no sketcher touches the generator.
        calls = []
        original = sketch._raw_words

        def spy(seed, offset, count):
            calls.append((seed, offset, count))
            return original(seed, offset, count)

        monkeypatch.setattr(sketch, "_raw_words", spy)
        sketch._self_test.cache_clear()
        GaussianSketcher(0, 4, 8)
        GaussianSketcher(1, 1031, 4040)
        assert len(calls) == 2 and calls[0][1] == 0 and calls[1][1] > 0
        assert all(offset % 4 == 0 and count == 4 for _, offset, count in calls)

    def test_swapped_box_muller_halves_fail(self, monkeypatch, tmp_path, capsys):
        # Negative control: swapping the cos and sin halves keeps the output
        # Gaussian, so moments cannot see it, but the known answers do.
        original = sketch._box_muller

        def swapped(words):
            out = original(words)
            out[0::2], out[1::2] = out[1::2].copy(), out[0::2].copy()
            return out

        words = KNOWN_ANSWERS[0].values[5]  # the seed-0 Philox words
        monkeypatch.setattr(sketch, "_box_muller", swapped)
        sketch._self_test.cache_clear()
        try:
            got = sketch._box_muller(np.array(words, dtype=np.uint64))
            assert np.abs(got - _scalar_normals(words)).max() > 1e-13
            with pytest.raises(NumericFailureError, match="known-answer"):
                GaussianSketcher(0, 4, 8)
            p = tmp_path / "a.csv"
            p.write_text("1,2,3,4,5,6,7,8\n" * 8)
            args = ["lra", "--input", str(p), "--rank", "1", "--eps", "1",
                    "--delta", "0.01", "--report", str(tmp_path / "r.json")]
            assert cli.main(args) == 1
            assert "known-answer" in capsys.readouterr().err
        finally:
            monkeypatch.undo()
            sketch._self_test.cache_clear()
        GaussianSketcher(0, 4, 8)


def _reference_box_muller(words, out=None, u1_offset=1.0):
    # The kernel as it stood before it shifted its words in place, kept
    # verbatim (``u1_offset`` aside) so that the fast one is pinned to it bit
    # for bit. It leaves ``words`` as they were.
    if out is None:
        out = np.empty(words.size)
    bits = words[0::2] >> np.uint64(11)
    radius = bits.astype(np.float64)
    radius += u1_offset
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.right_shift(words[1::2], np.uint64(11), out=bits)
    angle = bits.astype(np.float64)
    angle *= 2.0**-53
    angle *= 2.0 * np.pi
    trig = np.cos(angle)
    np.multiply(radius, trig, out=out[0::2])
    np.sin(angle, out=trig)
    np.multiply(radius, trig, out=out[1::2])
    return out


def _unscattered_box_muller(words, out=None):
    # The ordered kernel without its scatter: each normal is computed as
    # the kernel computes it, but written in the angle-bucket order of its
    # pair rather than to the pair's own slots.
    if out is None:
        out = np.empty(words.size)
    bits = (words >> np.uint64(11)).view(np.int64)
    order = np.argsort((bits[1::2] >> 45).astype(np.uint8), kind="stable")
    radius = np.sqrt(-2.0 * np.log((bits[0::2][order] + 1.0) * 2.0**-53))
    angle = bits[1::2][order] * (2.0 * np.pi * 2.0**-53)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out


def _swapped_scatter_box_muller(words, out=None):
    # The kernel with its 16-byte items built the wrong way round: the sin
    # normal in the first half of each pair and the cos normal in the second.
    if out is None:
        out = np.empty(words.size)
    order = sketch._pair_order(words)
    np.right_shift(words, np.uint64(11), out=words)
    pairs = words.view(np.complex128)[order]
    bits = pairs.view(np.int64)
    radius = np.sqrt(-2.0 * np.log((bits[0::2] + 1.0) * 2.0**-53))
    angle = bits[1::2] * (2.0 * np.pi * 2.0**-53)
    normals = pairs.view(np.float64)
    normals[1::2] = np.cos(angle) * radius
    normals[0::2] = np.sin(angle) * radius
    out.view(np.complex128)[order] = pairs
    return out


# 0, 2**64 - 1, the top 53 bits all ones (u1 = 1: a zero normal), words
# below 2**11 (angle 0) and a word just above them.
_EDGE_WORDS = [0, (1 << 64) - 1, ((1 << 53) - 1) << 11, 1, (1 << 11) - 1, 1 << 11]


class TestBoxMullerKernel:
    @staticmethod
    def _edge_pairs():
        # Every edge word in both places of a pair.
        return np.array([w for w0 in _EDGE_WORDS for w1 in _EDGE_WORDS for w in (w0, w1)],
                        dtype=np.uint64)

    @staticmethod
    def _stream_words():
        return sketch._raw_words(5, 4096, 1 << 16)

    @pytest.mark.parametrize("source", ["stream", "edges"])
    def test_bit_identical_to_reference(self, source):
        words = self._stream_words() if source == "stream" else self._edge_pairs()
        want = _reference_box_muller(words)
        assert np.array_equal(sketch._box_muller(words.copy()), want)
        # Written into a slice of a larger output, as _normals does.
        out = np.full(words.size + 2, np.nan)
        sketch._box_muller(words.copy(), out=out[1:-1])
        assert np.array_equal(out[1:-1], want) and np.isnan(out[[0, -1]]).all()

    @staticmethod
    def _bucket_edge_words():
        # The kernel orders pairs by the top 8 bits of their shifted angle
        # word. Angle words on both sides of every bucket edge: the first of
        # bucket k, (k << 45) << 11, and the last of the bucket below it,
        # ((k << 45) - 1) << 11 (of bucket 255 for k = 0), shuffled so that
        # the kernel must reorder them; the radius words come from a stream.
        edges = [w for k in range(256) for w in ((k << 45) << 11, ((k << 45) - 1) << 11)]
        angles = np.array([w & ((1 << 64) - 1) for w in edges], dtype=np.uint64)
        words = sketch._raw_words(6, 0, 2 * angles.size)
        words[1::2] = np.random.default_rng(6).permutation(angles)
        return words

    @staticmethod
    def _one_bucket_words():
        # A whole sub-block whose angle words all share the top 8 bits 77:
        # every key ties, and the stable order keeps the pairs in place.
        words = sketch._raw_words(7, 0, sketch._SUB_BLOCK_WORDS)
        words[1::2] = (words[1::2] >> np.uint64(8)) | np.uint64(77 << 56)
        return words

    @pytest.mark.parametrize("source", ["bucket-edges", "one-bucket", "two-words"])
    def test_ordered_kernel_is_bit_identical(self, source):
        words = {
            "bucket-edges": self._bucket_edge_words,
            "one-bucket": self._one_bucket_words,
            "two-words": lambda: sketch._raw_words(8, 0, 2),
        }[source]()
        assert np.array_equal(sketch._box_muller(words.copy()), _reference_box_muller(words))

    @pytest.mark.parametrize("count", [6656, 20640, 65016, 67260])
    def test_normals_match_the_reference_over_ragged_sub_blocks(self, count):
        # One request shorter than a sub-block, and the regress lift request
        # and the regress and multiply tiles of the benchmark workloads,
        # which span several sub-blocks and end in a ragged one.
        got = sketch._normals(9, 4096, count)
        assert np.array_equal(got, _reference_box_muller(sketch._raw_words(9, 4096, count)))

    def test_unscattered_order_fails(self, monkeypatch):
        # Negative control: the right normals in the wrong slots. The pin
        # tells it apart, and the known answers refuse it at construction.
        words = self._stream_words()
        want = _reference_box_muller(words)
        got = _unscattered_box_muller(words.copy())
        assert np.array_equal(np.sort(got), np.sort(want))
        assert not np.array_equal(got, want)
        monkeypatch.setattr(sketch, "_box_muller", _unscattered_box_muller)
        sketch._self_test.cache_clear()
        try:
            with pytest.raises(NumericFailureError, match="known-answer"):
                GaussianSketcher(0, 4, 8)
        finally:
            monkeypatch.undo()
            sketch._self_test.cache_clear()
        GaussianSketcher(0, 4, 8)

    @pytest.mark.parametrize("order", ["identity", "reverse", "random"])
    def test_any_scattered_order_is_bit_identical(self, monkeypatch, order):
        # The claim the byte keys rest on: whatever order the pairs are
        # visited in, scattering each back to its own slot gives the same
        # bytes, into a fresh output and into an unaligned slice of one.
        def visit(words):
            n = words.size // 2
            if order == "identity":
                return np.arange(n)
            if order == "reverse":
                return np.arange(n - 1, -1, -1)
            return np.random.default_rng(n).permutation(n)

        monkeypatch.setattr(sketch, "_pair_order", visit)
        for words in (self._stream_words(), self._bucket_edge_words(), self._edge_pairs()):
            want = _reference_box_muller(words)
            assert np.array_equal(sketch._box_muller(words.copy()), want)
            out = np.full(words.size + 2, np.nan)
            sketch._box_muller(words.copy(), out=out[1:-1])
            assert np.array_equal(out[1:-1], want) and np.isnan(out[[0, -1]]).all()

    def test_byte_keys_are_the_angle_top_bits(self):
        # Read at this machine's byte order, the key byte of each pair is
        # (w >> 11) >> 45 of its angle word w, so the kernel visits pairs in
        # the order of the arithmetic keys. The radius word's top byte is not.
        words = self._bucket_edge_words()
        want = ((words[1::2] >> np.uint64(11)) >> np.uint64(45)).astype(np.uint8)
        assert np.array_equal(words.view(np.uint8)[sketch._ANGLE_TOP_BYTE::16], want)
        assert np.array_equal(sketch._pair_order(words), np.argsort(want, kind="stable"))
        wrong = 23 - sketch._ANGLE_TOP_BYTE  # the radius word's top byte
        assert not np.array_equal(words.view(np.uint8)[wrong::16], want)

    def test_swapped_scatter_halves_fail(self, monkeypatch):
        # Negative control: a 16-byte scatter whose halves are swapped puts
        # each pair's normals in the right pair but the wrong places. The pin
        # tells it apart, and the known answers refuse it at construction.
        words = self._stream_words()
        want = _reference_box_muller(words)
        got = _swapped_scatter_box_muller(words.copy())
        assert np.array_equal(got.reshape(-1, 2)[:, ::-1].ravel(), want)
        assert not np.array_equal(got, want)
        monkeypatch.setattr(sketch, "_box_muller", _swapped_scatter_box_muller)
        sketch._self_test.cache_clear()
        try:
            with pytest.raises(NumericFailureError, match="known-answer"):
                GaussianSketcher(0, 4, 8)
        finally:
            monkeypatch.undo()
            sketch._self_test.cache_clear()
        GaussianSketcher(0, 4, 8)

    def test_edge_words_give_their_limits(self):
        got = sketch._box_muller(self._edge_pairs()).reshape(len(_EDGE_WORDS), len(_EDGE_WORDS), 2)
        # got[i, j] is the pair (_EDGE_WORDS[i], _EDGE_WORDS[j]). Words 1
        # and 2 have their top 53 bits all ones: radius 0.
        assert (got[1:3] == 0.0).all()
        # Words 3 and 4 shift to angle 0: the sin normal is 0 and the cos
        # one the radius, which word 0 makes its largest, sqrt(106 ln 2).
        assert (got[:, 3:5, 1] == 0.0).all()
        assert math.isclose(got[0, 3, 0], math.sqrt(106.0 * math.log(2.0)), rel_tol=1e-15)
        # Word 5 shifts to 1, the smallest angle past 0.
        assert 0.0 < got[0, 5, 1] < 1e-14

    def test_half_offset_u1_fails(self):
        # Negative control: u1 = (b0 + 0.5) * 2**-53 is as plausible a
        # uniform, and the pin tells it apart.
        words = self._stream_words()
        shifted = _reference_box_muller(words, u1_offset=0.5)
        assert not np.array_equal(sketch._box_muller(words.copy()), shifted)

    def test_consumes_its_words(self):
        # Callers pass fresh words; none may rely on them being kept.
        words = self._stream_words()
        kept = words.copy()
        sketch._box_muller(words)
        assert not np.array_equal(words, kept)


class TestColumnLayout:
    """Column j of omega is Box-Muller of its own Philox words
    [j*wpc, (j+1)*wpc), wpc = r rounded up to a multiple of 4: for r = 5,
    two counter blocks per column, of which 3 words are padding."""

    @staticmethod
    def _layout_holds(sk, j0, j1):
        wpc = 4 * ((sk.r + 3) // 4)
        got = sk.column_block(j0, j1)
        want = np.array([
            sketch._box_muller(sketch._raw_words(sk.seed, wpc * j, wpc))[: sk.r]
            for j in range(j0, j1)
        ]).T
        return got.shape == (sk.r, j1 - j0) and np.array_equal(got, want)

    @pytest.mark.parametrize("j0, j1", [(0, 40), (7, 23), (39, 40)])
    def test_each_column_reads_its_own_words(self, j0, j1):
        assert self._layout_holds(GaussianSketcher(3, 5, 40), j0, j1)

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["short", "equal", "past"])
    @pytest.mark.parametrize("r", [5, 74, 1031])
    def test_ranges_across_sub_blocks_are_bit_exact(self, r, extra):
        # From a non-zero column: the second smallest column count whose
        # words fill whole sub-blocks, and one column short of and past it.
        wpc = 4 * ((r + 3) // 4)
        cols = 2 * math.lcm(wpc, sketch._SUB_BLOCK_WORDS) // wpc + extra
        assert self._layout_holds(GaussianSketcher(4, r, cols + 3), 3, cols + 3)

    @pytest.mark.parametrize("pairs", [-1, 0, 1], ids=["short", "equal", "past"])
    @pytest.mark.parametrize("r", [5, 74, 1031])
    def test_any_even_split_is_bit_exact(self, monkeypatch, r, pairs):
        # Sub-blocks one word pair short of, equal to and one pair past two
        # columns: their boundaries fall inside columns and inside Philox
        # counter blocks, and the normals do not change.
        wpc = 4 * ((r + 3) // 4)
        monkeypatch.setattr(sketch, "_SUB_BLOCK_WORDS", 2 * wpc + 2 * pairs)
        assert self._layout_holds(GaussianSketcher(4, r, 12), 3, 12)

    def test_restarting_the_stream_each_sub_block_fails(self, monkeypatch):
        # Negative control: a fill loop that starts every sub-block from the
        # request's first word is right up to the first sub-block boundary
        # (2,048 columns of 8 words at r = 5) and wrong past it, and the
        # self-test's check across a sub-block boundary refuses it.
        def restarting(bg, out):
            start = bg.state
            for s0 in range(0, out.size, sketch._SUB_BLOCK_WORDS):
                s1 = min(s0 + sketch._SUB_BLOCK_WORDS, out.size)
                bg.state = start
                sketch._box_muller(bg.random_raw(s1 - s0), out=out[s0:s1])
            return out

        monkeypatch.setattr(sketch, "_fill", restarting)
        boundary = sketch._SUB_BLOCK_WORDS // 8
        sk = GaussianSketcher(3, 5, boundary + 6)
        assert self._layout_holds(sk, 2, boundary + 2)
        assert not self._layout_holds(sk, 2, boundary + 3)
        sketch._self_test.cache_clear()
        try:
            with pytest.raises(NumericFailureError, match="sub-block"):
                GaussianSketcher(3, 5, boundary + 6)
        finally:
            monkeypatch.undo()
            sketch._self_test.cache_clear()
        GaussianSketcher(3, 5, boundary + 6)

    @staticmethod
    def _halved_stride(sk, j0, j1):
        # Columns at a stride of half a column's words: at r = 5, column j
        # reads words [4j, 4j + 5), so its last normal is the first of j + 1.
        stride = sk._wpc // 2
        words = sketch._raw_words(sk.seed, j0 * stride, (j1 - j0 + 1) * stride)
        normals = sketch._box_muller(words)
        cols = [normals[i * stride : i * stride + sk.r] for i in range(j1 - j0)]
        return np.stack(cols, axis=1)

    def test_halved_stride_fails(self, monkeypatch):
        # Negative control of the layout.
        monkeypatch.setattr(GaussianSketcher, "column_block", self._halved_stride)
        sk = GaussianSketcher(3, 5, 40)
        block = sk.column_block(0, 40)
        assert block.shape == (5, 40) and np.array_equal(block[4, :-1], block[0, 1:])
        assert not self._layout_holds(sk, 0, 40)

    @pytest.mark.parametrize("r", [5, 21], ids=["r5", "verify"])
    def test_halved_stride_fails_the_verify_check(self, monkeypatch, r):
        # Negative control of harness.mc_column_independence, which passes
        # the shipped layout at the same seed: the overlap's r - wpc / 2
        # shared normals score about sqrt(m - 1).
        assert harness.mc_column_independence(r, 4000, seed=1).passed
        monkeypatch.setattr(GaussianSketcher, "column_block", self._halved_stride)
        rep = harness.mc_column_independence(r, 4000, seed=1)
        assert not rep.passed and rep.violations == r - 4 * ((r + 3) // 4) // 2

    def test_repeated_columns_fail_the_jl_check(self, monkeypatch):
        # The harness's JL check draws from the shipped generator, so it
        # sees a column stride that advances every other column: columns
        # 2i and 2i + 1 read the same words, and a projected vector's norm
        # then depends on the sums of its coordinate pairs.
        def repeated(self, j0, j1):
            return np.stack([
                sketch._normals(self.seed, (j // 2) * self._wpc, self._wpc)[: self.r]
                for j in range(j0, j1)
            ], axis=1)

        assert harness.mc_jl(16, 800, 0.2, trials=300, seed=7).passed
        monkeypatch.setattr(GaussianSketcher, "column_block", repeated)
        block = GaussianSketcher(3, 5, 40).column_block(3, 9)
        assert np.array_equal(block[:, 1], block[:, 2]) and not np.array_equal(block[:, 0], block[:, 1])
        assert not harness.mc_jl(16, 800, 0.2, trials=300, seed=7).passed

import math

import numpy as np
import pytest

from dpsketch import cli, guard, sketch
from dpsketch.errors import CapacityError, ContractViolationError, NumericFailureError
from dpsketch.matprod import new_matprod
from dpsketch.regress import new_regress
from dpsketch.sketch import GaussianSketcher

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)


def _tile_spy(monkeypatch, keep=True):
    """Record (j0, j1, block) of every column_block call from here on; the
    block is None when ``keep`` is false."""
    tiles = []
    original = GaussianSketcher.column_block

    def spy(self, j0, j1):
        block = original(self, j0, j1)
        tiles.append((j0, j1, block if keep else None))
        return block

    monkeypatch.setattr(GaussianSketcher, "column_block", spy)
    return tiles


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
        original = GaussianSketcher.column_block

        def summing(self, j0, j1):
            nonlocal total, total_sq
            tile = original(self, j0, j1)
            total += float(tile.sum())
            total_sq += float(np.square(tile).sum())
            return tile

        monkeypatch.setattr(GaussianSketcher, "column_block", summing)
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
        for seed, r, m in ((7, 4, 8), (-1, 3, 5), ((1 << 64) + 3, 2, 9)):
            assert GaussianSketcher(seed, r, m).fingerprint == (seed & (2**64 - 1), r, m)


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
    """project_blocks walks its range in tiles, one column_block call each."""

    def test_default_tile_budget(self, monkeypatch):
        assert sketch.TILE_ENTRIES == 65536
        sk = GaussianSketcher(3, 1031, 4040)
        tiles = _tile_spy(monkeypatch, keep=False)
        sk.project_blocks(0, [np.zeros((sk.m, 1))])
        sizes = [sk.r * (t1 - t0) for t0, t1, _ in tiles]
        assert max(sizes) == 63 * 1031 and sum(sizes) == sk.r * sk.m

    def test_uneven_tiles_concatenate_bit_exact(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        sk = GaussianSketcher(5, 5, 40)
        tiles = _tile_spy(monkeypatch)
        sk.project_blocks(3, [np.zeros((33, 1))])
        assert [t1 - t0 for t0, t1, _ in tiles] == [2] * 16 + [1]
        assert tiles[0][0] == 3 and tiles[-1][1] == 36
        assert all(tile.shape == (5, t1 - t0) for t0, t1, tile in tiles)
        joined = np.hstack([tile for *_, tile in tiles])
        assert np.array_equal(joined, sk.column_block(3, 36))
        assert np.array_equal(joined, GaussianSketcher(5, 5, 40).omega[:, 3:36])

    def test_one_column_tiles_when_r_exceeds_budget(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 3)
        sk = GaussianSketcher(6, 5, 9)
        tiles = _tile_spy(monkeypatch)
        sk.project_blocks(0, [np.zeros((9, 1))])
        assert [(t0, t1) for t0, t1, _ in tiles] == [(j, j + 1) for j in range(9)]
        assert np.array_equal(np.hstack([t for *_, t in tiles]), sk.omega)

    def test_empty_range_and_range_check(self, monkeypatch):
        # An empty range generates nothing, and so does a range outside
        # the projection, which is refused as a whole before any tile.
        sk = GaussianSketcher(1, 4, 6)
        tiles = _tile_spy(monkeypatch)
        (out,) = sk.project_blocks(2, [np.ones((0, 3))])
        assert np.array_equal(out, np.zeros((4, 3)))
        for j0, k in ((-1, 3), (0, 7), (5, 2)):
            with pytest.raises(ContractViolationError, match="outside"):
                sk.project_blocks(j0, [np.ones((k, 1))])
        assert tiles == []
        for j0, j1 in ((-1, 2), (3, 2), (0, 7)):
            with pytest.raises(ContractViolationError, match="outside"):
                sk.column_block(j0, j1)

    @pytest.mark.parametrize(
        "block", [np.ones(3), np.ones((3, 1, 1)), [[1.0], [2.0], [3.0]]], ids=["1-D", "3-D", "list"]
    )
    def test_project_blocks_refuses_a_block_that_is_not_2d(self, monkeypatch, block):
        sk = GaussianSketcher(0, 2, 3)
        tiles = _tile_spy(monkeypatch)
        with pytest.raises(ContractViolationError, match="2-D"):
            sk.project_blocks(0, [block])
        with pytest.raises(ContractViolationError, match="2-D"):
            sk.project_blocks(0, [np.ones((3, 1)), block])
        assert tiles == []

    @pytest.mark.parametrize("r", [5, 8], ids=["padded", "unpadded"])
    def test_column_block_is_a_view_of_the_generated_normals(self, r):
        # No copy: the block views the normals in generation order, with or
        # without padding words between columns, and holds omega's values.
        sk = GaussianSketcher(7, r, 12)
        block = sk.column_block(3, 9)
        assert not block.flags.owndata and block.shape == (r, 6)
        assert np.array_equal(block, sk.omega[:, 3:9])

    def test_tiles_come_from_column_block(self, monkeypatch):
        # Every tile is one positional column_block(j0, j1) call.
        calls = []
        original = GaussianSketcher.column_block

        def spy(self, *args, **kwargs):
            calls.append((args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(sketch, "TILE_ENTRIES", 8)
        sk = GaussianSketcher(2, 4, 10)
        monkeypatch.setattr(GaussianSketcher, "column_block", spy)
        sk.project_blocks(1, [np.ones((7, 2))])
        assert calls == [((1, 3), {}), ((3, 5), {}), ((5, 7), {}), ((7, 8), {})]

    def test_project_blocks_share_each_tile(self, monkeypatch):
        # Several blocks over the same columns cost one pass over the tiles,
        # and each result is its own one-block pass bit for bit.
        calls = []
        original = GaussianSketcher.column_block

        def spy(self, j0, j1):
            calls.append((j0, j1))
            return original(self, j0, j1)

        monkeypatch.setattr(sketch, "TILE_ENTRIES", 8)
        sk = GaussianSketcher(2, 4, 10)
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((7, 2)), rng.standard_normal((7, 3))]
        want = [sk.project_blocks(1, [x])[0] for x in blocks]
        monkeypatch.setattr(GaussianSketcher, "column_block", spy)
        got = sk.project_blocks(1, blocks)
        assert calls == [(1, 3), (3, 5), (5, 7), (7, 8)]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        with pytest.raises(ContractViolationError):
            sk.project_blocks(1, [np.ones((7, 2)), np.ones((6, 2))])

    def test_project_blocks_refuses_no_blocks(self):
        with pytest.raises(ContractViolationError, match="no blocks"):
            GaussianSketcher(0, 2, 3).project_blocks(0, [])

    def test_construction_generates_only_a_stored_projection(self, monkeypatch):
        # No sketcher stores its projection, so construction requests and
        # generates no column: column_block is the one generator.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        tiles = _tile_spy(monkeypatch)
        GaussianSketcher(9, 5, 23)
        assert tiles == []

    @pytest.mark.parametrize("budget", [1, 12, 65536])
    def test_project_matches_dense_product(self, monkeypatch, budget):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", budget)
        sk = GaussianSketcher(4, 5, 40)
        x = np.random.default_rng(4).standard_normal((33, 3))
        want = sk.column_block(3, 36) @ x
        (got,) = sk.project_blocks(3, [x])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_vector_ops_walk_tiles(self, monkeypatch):
        # One-column blocks request at most one tile of omega at a time
        # and agree with products of the full omega.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        om = GaussianSketcher(8, 4, 30).omega
        sk = GaussianSketcher(8, 4, 30)
        sizes = []
        original = GaussianSketcher.column_block

        def spy(self, j0, j1):
            sizes.append(self.r * (j1 - j0))
            return original(self, j0, j1)

        monkeypatch.setattr(GaussianSketcher, "column_block", spy)
        v = np.random.default_rng(8).standard_normal(30)
        want = om @ v
        got = sk.project_blocks(0, [v[:, None], -v[:, None]])
        for out, sign in zip(got, (1.0, -1.0)):
            assert np.linalg.norm(out[:, 0] - sign * want) <= 1e-12 * np.linalg.norm(want)
        assert sizes and max(sizes) <= sketch.TILE_ENTRIES


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
        for key in (seed, seed - (1 << 64)):  # the second only matches through & _U64
            raw = sketch._raw_words(key, j0 * wpc, (j1 - j0) * wpc)
            assert [int(w) for w in raw] == words
        want = np.array(_scalar_normals(words)).reshape(j1 - j0, wpc)[:, :r].T
        got = GaussianSketcher(seed, r, m).column_block(j0, j1)
        assert got.shape == (r, j1 - j0)
        assert np.abs(got - want).max() <= 1e-13
        for (i, j), value in spots.items():
            assert abs(got[i, j] - value) <= 1e-13

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
        # Negative control: a generator that starts every sub-block from the
        # request's first word is right up to the first sub-block boundary
        # (1024 columns at r = 5) and wrong past it, and the self-test's
        # check across a sub-block boundary refuses it.
        def restarting(seed, offset, count):
            out = np.empty(count)
            for s0 in range(0, count, sketch._SUB_BLOCK_WORDS):
                s1 = min(s0 + sketch._SUB_BLOCK_WORDS, count)
                sketch._box_muller(sketch._raw_words(seed, offset, s1 - s0), out=out[s0:s1])
            return out

        monkeypatch.setattr(sketch, "_normals", restarting)
        sk = GaussianSketcher(3, 5, 1030)
        assert self._layout_holds(sk, 2, 1026)
        assert not self._layout_holds(sk, 2, 1027)
        sketch._self_test.cache_clear()
        try:
            with pytest.raises(NumericFailureError, match="sub-block"):
                GaussianSketcher(3, 5, 1030)
        finally:
            monkeypatch.undo()
            sketch._self_test.cache_clear()
        GaussianSketcher(3, 5, 1030)

    def test_halved_stride_fails(self, monkeypatch):
        # Negative control: at a stride of 4 words, column j reads words
        # [4j, 4j + 5), so its last normal is the first of column j + 1.
        def shared_words(self, j0, j1):
            stride = self._wpc // 2
            words = sketch._raw_words(self.seed, j0 * stride, (j1 - j0 + 1) * stride)
            normals = sketch._box_muller(words)
            cols = [normals[i * stride : i * stride + self.r] for i in range(j1 - j0)]
            return np.stack(cols, axis=1)

        monkeypatch.setattr(GaussianSketcher, "column_block", shared_words)
        sk = GaussianSketcher(3, 5, 40)
        block = sk.column_block(0, 40)
        assert block.shape == (5, 40) and np.array_equal(block[4, :-1], block[0, 1:])
        assert not self._layout_holds(sk, 0, 40)

import math

import numpy as np
import pytest

from dpsketch import cli, sketch
from dpsketch.errors import (
    CapacityError,
    ContractViolationError,
    FormatError,
    NumericFailureError,
)
from dpsketch.sketch import GaussianSketcher, Sketch, deserialize, merge, serialize


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
    def test_benchmark_identity_moments(self, r, m):
        # The benchmark's sketcher shapes at seed 0, regenerated tile by tile.
        sk = GaussianSketcher(0, r, m)
        total = total_sq = 0.0
        for *_, tile in sk.tiles(0, m):
            total += float(tile.sum())
            total_sq += float(np.square(tile).sum())
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


class TestProjectionOps:
    def test_psg1_zero(self):
        sk = GaussianSketcher(1, 4, 6)
        np.testing.assert_array_equal(sk.psg1(np.zeros(6)), np.zeros(4))

    def test_psg1_basis_vector(self):
        sk = GaussianSketcher(2, 4, 6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = 1.0
            np.testing.assert_allclose(sk.psg1(e), sk.omega[:, i], atol=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_psg_linearity(self, seed):
        rng = np.random.default_rng(seed)
        sk = GaussianSketcher(seed, 5, 8)
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        a, b = rng.uniform(-2, 2, size=2)
        for op in (sk.psg1, sk.psg2):
            lhs = op(a * u + b * v)
            rhs = a * op(u) + b * op(v)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)

    def test_psg2_zero(self):
        sk = GaussianSketcher(1, 4, 6)
        np.testing.assert_array_equal(sk.psg2(np.zeros(6)), np.zeros(6))

    def test_psg2_composition_identity(self):
        sk = GaussianSketcher(9, 3, 7)
        v = np.random.default_rng(9).standard_normal(7)
        assert np.array_equal(sk.psg2(v), sk.omega.T @ sk.psg1(v))

    def test_psg2_expectation_is_identity(self):
        # E[omega.T omega] = r I, so the r-rescaled reprojection is unbiased.
        v = np.array([1.0, -2.0, 0.5, 3.0])
        trials = 10_000
        r = 4
        total = np.zeros(4)
        total_sq = np.zeros(4)
        for t in range(trials):
            out = GaussianSketcher(40_000 + t, r, 4).psg2(v) / r
            total += out
            total_sq += out * out
        mean = total / trials
        stderr = np.sqrt((total_sq / trials - mean**2) / trials)
        assert np.all(np.abs(mean - v) <= 3 * stderr)

    def test_length_mismatch(self):
        sk = GaussianSketcher(1, 4, 6)
        with pytest.raises(ContractViolationError):
            sk.psg1(np.zeros(5))
        with pytest.raises(ContractViolationError):
            sk.psg2(np.zeros(7))


class TestSketchUpdates:
    def _pair(self, kind, seed=21, r=4, m=6, c=5):
        sk = GaussianSketcher(seed, r, m)
        return sk, Sketch.empty(sk, kind, c)

    def test_cancellation(self):
        sk, s = self._pair("psg1")
        v = np.random.default_rng(0).standard_normal(6)
        s.update_column(sk, 2, v)
        s.update_column(sk, 2, -v)
        assert np.linalg.norm(s.data) <= 1e-12

    def test_update_linearity(self):
        sk, s1 = self._pair("psg2")
        _, s2 = self._pair("psg2")
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal(6), rng.standard_normal(6)
        s1.update_column(sk, 0, v)
        s1.update_column(sk, 0, w)
        s2.update_column(sk, 0, v + w)
        assert np.allclose(s1.data, s2.data, rtol=0, atol=1e-10)

    def test_streamed_equals_batch(self):
        sk, s = self._pair("psg1", c=5)
        a = np.random.default_rng(2).standard_normal((6, 5))
        for j in range(5):
            s.update_column(sk, j, a[:, j])
        np.testing.assert_allclose(s.data, sk.omega @ a, rtol=1e-12, atol=1e-12)

    def test_psg2_sketch_rows(self):
        _, s = self._pair("psg2")
        assert s.data.shape[0] == 6

    def test_fingerprint_mismatch(self):
        sk, s = self._pair("psg1")
        other = GaussianSketcher(99, 4, 6)
        with pytest.raises(ContractViolationError):
            s.update_column(other, 0, np.zeros(6))

    def test_zero_update_is_noop(self):
        sk, s = self._pair("psg1")
        before = s.data.copy()
        s.update_column(sk, 1, np.zeros(6))
        assert np.array_equal(s.data, before)


class TestMerge:
    def test_merge_with_zero(self):
        sk = GaussianSketcher(5, 3, 4)
        s = Sketch.empty(sk, "psg1", 2)
        s.update_column(sk, 0, np.ones(4))
        z = Sketch.empty(sk, "psg1", 2)
        merged = merge(s, z)
        assert np.array_equal(merged.data, s.data)

    def test_merge_commutes(self):
        sk = GaussianSketcher(5, 3, 4)
        a = Sketch.empty(sk, "psg1", 2)
        b = Sketch.empty(sk, "psg1", 2)
        a.update_column(sk, 0, np.arange(4.0))
        b.update_column(sk, 1, np.ones(4))
        assert np.array_equal(merge(a, b).data, merge(b, a).data)

    def test_sharded_stream_equals_single_pass(self):
        sk = GaussianSketcher(17, 4, 6)
        updates = [
            (j % 3, np.random.default_rng(j).standard_normal(6)) for j in range(12)
        ]
        single = Sketch.empty(sk, "psg1", 3)
        for col, v in updates:
            single.update_column(sk, col, v)
        shards = [Sketch.empty(sk, "psg1", 3) for _ in range(4)]
        for idx, (col, v) in enumerate(updates):
            shards[idx % 4].update_column(sk, col, v)
        combined = shards[0]
        for piece in shards[1:]:
            combined = merge(combined, piece)
        scale = max(np.linalg.norm(single.data), 1e-30)
        assert np.linalg.norm(combined.data - single.data) <= 1e-10 * scale

    def test_mismatch_errors(self):
        sk = GaussianSketcher(5, 3, 4)
        other = GaussianSketcher(6, 3, 4)
        with pytest.raises(ContractViolationError):
            merge(Sketch.empty(sk, "psg1", 2), Sketch.empty(sk, "psg2", 2))
        with pytest.raises(ContractViolationError):
            merge(Sketch.empty(sk, "psg1", 2), Sketch.empty(other, "psg1", 2))


class TestSerialization:
    def test_empty_roundtrip(self):
        sk = GaussianSketcher(1, 3, 4)
        s = Sketch.empty(sk, "psg1", 0)
        back = deserialize(serialize(s))
        assert back.col_count == 0 and back.kind == "psg1"

    def test_roundtrip_bit_exact(self):
        sk = GaussianSketcher(23, 16, 20)
        s = Sketch.empty(sk, "psg1", 32)
        rng = np.random.default_rng(4)
        for j in range(32):
            s.update_column(sk, j, rng.standard_normal(20))
        blob = serialize(s)
        back = deserialize(blob)
        assert np.array_equal(back.data, s.data)
        assert serialize(back) == blob

    def test_wrong_magic(self):
        sk = GaussianSketcher(1, 3, 4)
        blob = bytearray(serialize(Sketch.empty(sk, "psg1", 2)))
        blob[:4] = b"NOPE"
        with pytest.raises(FormatError):
            deserialize(bytes(blob))

    def test_truncation(self):
        sk = GaussianSketcher(1, 3, 4)
        blob = serialize(Sketch.empty(sk, "psg1", 2))
        with pytest.raises(FormatError):
            deserialize(blob[:-5])
        with pytest.raises(FormatError):
            deserialize(blob[:10])

    def test_fingerprint_tamper(self):
        sk = GaussianSketcher(1, 3, 4)
        blob = bytearray(serialize(Sketch.empty(sk, "psg1", 2)))
        blob[sketch._HEADER.size - 8] ^= 0xFF  # flip a fingerprint byte
        with pytest.raises(FormatError):
            deserialize(bytes(blob))


class TestTiles:
    def test_default_tile_budget(self):
        assert sketch.TILE_ENTRIES == 65536
        sk = GaussianSketcher(3, 1031, 4040)
        sizes = [t.size for *_, t in sk.tiles(0, sk.m)]
        assert max(sizes) == 63 * 1031 and sum(sizes) == sk.r * sk.m

    def test_uneven_tiles_concatenate_bit_exact(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        sk = GaussianSketcher(5, 5, 40)
        tiles = list(sk.tiles(3, 36))
        assert [t1 - t0 for t0, t1, _ in tiles] == [2] * 16 + [1]
        assert tiles[0][0] == 3 and tiles[-1][1] == 36
        assert all(tile.shape == (5, t1 - t0) for t0, t1, tile in tiles)
        joined = np.hstack([tile for *_, tile in tiles])
        assert np.array_equal(joined, sk.column_block(3, 36))
        assert np.array_equal(joined, GaussianSketcher(5, 5, 40).omega[:, 3:36])

    def test_one_column_tiles_when_r_exceeds_budget(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 3)
        sk = GaussianSketcher(6, 5, 9)
        tiles = list(sk.tiles(0, 9))
        assert [(t0, t1) for t0, t1, _ in tiles] == [(j, j + 1) for j in range(9)]
        assert np.array_equal(np.hstack([t for *_, t in tiles]), sk.omega)

    def test_empty_range_and_range_check(self):
        sk = GaussianSketcher(1, 4, 6)
        assert list(sk.tiles(2, 2)) == []
        for j0, j1 in ((-1, 2), (3, 2), (0, 7)):
            with pytest.raises(ContractViolationError):
                list(sk.tiles(j0, j1))

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
        sk.project(1, np.ones((7, 2)))
        assert calls == [((1, 3), {}), ((3, 5), {}), ((5, 7), {}), ((7, 8), {})]

    def test_project_blocks_share_each_tile(self, monkeypatch):
        # Several blocks over the same columns cost one pass over the tiles,
        # and each result is its own project() bit for bit.
        calls = []
        original = GaussianSketcher.column_block

        def spy(self, j0, j1):
            calls.append((j0, j1))
            return original(self, j0, j1)

        monkeypatch.setattr(sketch, "TILE_ENTRIES", 8)
        sk = GaussianSketcher(2, 4, 10)
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((7, 2)), rng.standard_normal((7, 3))]
        want = [sk.project(1, x) for x in blocks]
        monkeypatch.setattr(GaussianSketcher, "column_block", spy)
        got = sk.project_blocks(1, blocks)
        assert calls == [(1, 3), (3, 5), (5, 7), (7, 8)]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        with pytest.raises(ContractViolationError):
            sk.project_blocks(1, [np.ones((7, 2)), np.ones((6, 2))])

    def test_construction_generates_only_a_stored_projection(self, monkeypatch):
        # No sketcher stores its projection, so construction requests and
        # generates no column.
        requested, generated = [], []
        original_block = GaussianSketcher.column_block
        original_generate = GaussianSketcher._generate_block

        def block_spy(self, j0, j1):
            requested.append((j0, j1))
            return original_block(self, j0, j1)

        def generate_spy(self, j0, j1):
            generated.append((j0, j1))
            return original_generate(self, j0, j1)

        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        monkeypatch.setattr(GaussianSketcher, "column_block", block_spy)
        monkeypatch.setattr(GaussianSketcher, "_generate_block", generate_spy)
        GaussianSketcher(9, 5, 23)
        assert requested == [] and generated == []

    @pytest.mark.parametrize("budget", [1, 12, 65536])
    def test_project_matches_dense_product(self, monkeypatch, budget):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", budget)
        sk = GaussianSketcher(4, 5, 40)
        x = np.random.default_rng(4).standard_normal((33, 3))
        want = sk.column_block(3, 36) @ x
        got = sk.project(3, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_vector_ops_walk_tiles(self, monkeypatch):
        # psg1, psg2 and update_column request at most one tile of omega at
        # a time and agree with products of the full omega.
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
        want = {"psg1": om @ v, "psg2": om.T @ (om @ v)}
        got = {"psg1": sk.psg1(v), "psg2": sk.psg2(v)}
        for kind in ("psg1", "psg2"):
            s = Sketch.empty(sk, kind, 2)
            s.update_column(sk, 1, v)
            for out in (got[kind], s.data[:, 1]):
                assert np.linalg.norm(out - want[kind]) <= 1e-12 * np.linalg.norm(want[kind])
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

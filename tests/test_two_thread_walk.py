"""The two-thread projection walk, and the thread scope of CLI releases.

A walk generates its tiles on two threads only inside
``sketch._release_threads``, which each CLI release enters, and only where
the process may use exactly two CPUs; the scope then runs BLAS on one
thread. Most tests here pick the path by patching ``sketch._split_walks``,
the flag the scope sets; the serial walk is the reference the two-thread
walk must equal bit for bit.
"""
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from dpsketch import cli, harness, sketch
from dpsketch.sketch import GaussianSketcher

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _use(monkeypatch, split):
    monkeypatch.setattr(sketch, "_split_walks", split)


def _walk(monkeypatch, split, sk, j0, j1):
    # The walk's (t0, t1, tile) triples, each tile copied out of its buffer.
    _use(monkeypatch, split)
    return [(t0, t1, tile.copy()) for t0, t1, tile in sketch._tiles(sk, j0, j1)]


def _joined(walk):
    return np.hstack([tile for *_, tile in walk])


def _cases():
    # Seeded random (r, m, j0, j1, TILE_ENTRIES), then the edge cases:
    # numpy-integer starts, a one-tile range, an odd tile count (the caller
    # generates the last tile), and r over the tile (one-column tiles,
    # which have no half and walk serially).
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(24):
        r, m = int(rng.integers(1, 120)), int(rng.integers(1, 400))
        j0 = int(rng.integers(0, m))
        cases.append((r, m, j0, int(rng.integers(j0 + 1, m + 1)), int(rng.integers(1, 3000))))
    cases += [
        (5, 40, np.int64(3), 36, 12),
        (74, 3000, np.int32(7), np.int64(2999), 1 << 16),
        (1031, 2000, 0, 20, 1 << 16),
        (104, 2000, 5, 5 + 5 * 315, 1 << 16),
        (7, 9, 0, 9, 3),
    ]
    return cases


def _tile_count(r, j0, j1):
    # Half tiles, or one column a tile where the whole tile is one column.
    width = max(1, sketch.per_tile(r) // 2)
    return -(-(int(j1) - int(j0)) // width)


def _fake_blas(monkeypatch, threads, takes=True):
    # Stand-in entry points: the count the getter reports, and every count
    # given to the setter, which a setter that does not take ignores.
    state = {"threads": threads, "set": []}

    def set_(n):
        state["set"].append(n)
        if takes:
            state["threads"] = n

    monkeypatch.setattr(sketch, "_blas_thread_fns", lambda: (lambda: state["threads"], set_))
    return state


class TestSelection:
    """Two threads only inside the release scope, where the process may use
    exactly 2 CPUs, the release's rows to a tile of its widest input span
    three half tiles or more and BLAS goes to one thread; the serial walk
    everywhere else."""

    @pytest.fixture(autouse=True)
    def _small_tiles(self, monkeypatch):
        # 40-entry tiles: 8 columns at r = 5, half tiles of 4.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)

    @staticmethod
    def _widths(r=5):
        sk = GaussianSketcher(1, r, 40)
        return {t1 - t0 for t0, t1, _tile in sketch._tiles(sk, 0, 40)}

    def test_outside_the_scope_walks_are_serial(self, monkeypatch):
        # Even where BLAS already runs on one thread on 2 CPUs, as in a
        # library caller that pins BLAS itself: no helper thread.
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        _fake_blas(monkeypatch, 1)
        assert sketch._split_walks is False
        assert self._widths() == {8}

    @pytest.mark.parametrize(
        "cpus, blas, r, walk, split",
        [(2, "takes", 5, 9, True), (1, "takes", 5, 9, False), (4, "takes", 5, 9, False),
         (2, None, 5, 9, False), (2, "stays-at-2", 5, 9, False),
         (2, "takes", 5, 8, False), (2, "takes", 50, 40, False)],
        ids=["2-cpus", "1-cpu", "4-cpus", "no-entry-point", "blas-stays-at-2",
             "two-half-tiles", "one-column-tiles"],
    )
    def test_selection(self, monkeypatch, cpus, blas, r, walk, split):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: cpus)
        if blas is None:
            monkeypatch.setattr(sketch, "_blas_thread_fns", lambda: None)
        else:
            state = _fake_blas(monkeypatch, 2, takes=blas == "takes")
        pinned = cpus == 2 and blas is not None and walk > 8 and r == 5
        with sketch._release_threads(r, walk):
            assert sketch._split_walks is split
            # The walk follows: half tiles (4 columns at r = 5) or whole ones.
            assert self._widths() == ({4} if split else {8})
            if blas is not None:
                # BLAS is pinned only where the walks may take the second CPU.
                assert state["set"] == ([1] if pinned else [])
        assert sketch._split_walks is False
        if blas is not None:
            assert state["threads"] == 2 and state["set"] == ([1, 2] if pinned else [])

    def test_one_column_tiles_walk_serially(self, monkeypatch):
        # r = 50 over a 40-entry tile: a tile is one column, which has no
        # half, so one stream on the calling thread walks it even where
        # walks are split.
        _use(monkeypatch, True)
        opened = []
        original = sketch._philox

        def philox(seed, offset):
            opened.append(threading.current_thread().name)
            return original(seed, offset)

        monkeypatch.setattr(sketch, "_philox", philox)
        assert self._widths(r=50) == {1}
        assert opened == [threading.current_thread().name]

    def test_the_scope_restores_both_when_its_body_raises(self, monkeypatch):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        with pytest.raises(HelperFailed):
            with sketch._release_threads(5, 40):
                assert sketch._split_walks
                raise HelperFailed("the release fails")
        assert sketch._split_walks is False
        assert state["set"] == [1, 3] and state["threads"] == 3

    @pytest.mark.parametrize(
        "mask, split", [({0}, False), ({0, 3}, True), ({0, 1, 2, 3}, False)]
    )
    def test_usable_cpus_are_the_affinity_mask(self, monkeypatch, mask, split):
        _fake_blas(monkeypatch, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        assert sketch._usable_cpus() == len(mask)
        with sketch._release_threads(5, 40):
            assert sketch._split_walks is split

    def test_the_entry_points_read_and_set_the_count(self):
        fns = sketch._blas_thread_fns()
        if fns is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        get, set_ = fns
        before = get()
        assert before >= 1
        try:
            set_(1)
            assert get() == 1
        finally:
            set_(before)
        assert get() == before


class TestBitExact:
    @pytest.mark.parametrize("r, m, j0, j1, entries", _cases())
    def test_two_threads_give_the_serial_tiles(self, monkeypatch, r, m, j0, j1, entries):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", entries)
        sk = GaussianSketcher(int(r) * 7 + 1, r, m)
        serial, split = _walk(monkeypatch, False, sk, j0, j1), _walk(monkeypatch, True, sk, j0, j1)
        assert np.array_equal(_joined(split), _joined(serial))
        assert np.array_equal(_joined(split), sk.column_block(j0, j1))
        assert len(split) == _tile_count(r, j0, j1)
        for t0, t1, tile in split:
            assert np.array_equal(tile, sk.column_block(t0, t1))

    def test_a_helper_stream_that_does_not_skip_fails(self, monkeypatch):
        # Negative control: the helper's stream (the second one the walk
        # opens) ignores its skips, so its second tile takes the words of
        # the caller's tile before it.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        sk = GaussianSketcher(5, 5, 40)
        want = _joined(_walk(monkeypatch, False, sk, 3, 36))
        original = sketch._philox
        opened = []

        class NoSkip:
            def __init__(self, bg):
                self.bg = bg

            def random_raw(self, count):
                return self.bg.random_raw(count)

            def advance(self, delta):
                pass

        def philox(seed, offset):
            opened.append(offset)
            bg = original(seed, offset)
            return NoSkip(bg) if len(opened) == 2 else bg

        monkeypatch.setattr(sketch, "_philox", philox)
        got = _joined(_walk(monkeypatch, True, sk, 3, 36))
        assert len(opened) == 2 and not np.array_equal(got, want)
        # One-column tiles: the caller's (even) ones and the helper's first
        # are still right, and the helper's second is not.
        assert np.array_equal(got[:, 0::2], want[:, 0::2])
        assert np.array_equal(got[:, 1], want[:, 1])
        assert not np.array_equal(got[:, 3], want[:, 3])


class TestOrder:
    def test_each_column_once_in_order_on_both_threads(self, monkeypatch, tile_calls):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        sk = GaussianSketcher(2, 5, 100)
        threads = []
        spy = sketch._tile

        def naming(sk_, bg, j0, j1, buf):
            threads.append((j0, threading.current_thread().name))
            return spy(sk_, bg, j0, j1, buf)

        monkeypatch.setattr(sketch, "_tile", naming)
        walk = _walk(monkeypatch, True, sk, 3, 98)
        spans = [(t0, t1) for t0, t1, _tile in walk]
        assert spans[0][0] == 3 and spans[-1][1] == 98
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        # Every tile generated once, in the walk's own spans, and 5 x 95
        # normals in all; the even tiles on the caller, the odd ones on the
        # helper thread.
        assert [(j0, j1) for _r, j0, j1 in sorted(tile_calls, key=lambda c: c[1])] == spans
        assert tile_calls.normals == 5 * 95
        names = dict(threads)
        helper = {names[t0] for t0, _t1 in spans[1::2]}
        assert {names[t0] for t0, _t1 in spans[0::2]} == {threading.current_thread().name}
        assert len(helper) == 1 and helper != {threading.current_thread().name}


class TestConcurrentWalks:
    def test_walks_from_many_threads_share_the_helper_exactly(self, monkeypatch):
        # Six threads walk at once on 2 CPUs, switching as often as the
        # interpreter allows; their jobs share the one helper thread, and
        # every walk must still give its own columns bit for bit.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        _use(monkeypatch, True)
        sketchers = [GaussianSketcher(seed, 5, 120) for seed in range(6)]
        wants = [sk.column_block(0, 120) for sk in sketchers]
        results = [None] * len(sketchers)

        def walk(i):
            for _ in range(20):
                tiles = [tile.copy() for *_, tile in sketch._tiles(sketchers[i], 0, 120)]
                if not np.array_equal(np.hstack(tiles), wants[i]):
                    results[i] = False
                    return
            results[i] = True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(i,)) for i in range(len(sketchers))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [True] * len(sketchers)


class HelperFailed(Exception):
    pass


class TestFaults:
    @staticmethod
    def _fresh_walk_is_exact(monkeypatch):
        sk = GaussianSketcher(8, 5, 60)
        return np.array_equal(_joined(_walk(monkeypatch, True, sk, 0, 60)), sk.column_block(0, 60))

    def test_a_walk_left_early_waits_for_the_helper(self, monkeypatch):
        # The caller raises at the first tile, while the helper is still
        # generating the second (slowed down here): the walk returns only
        # once that tile is done, and the next walk is bit-exact.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        original = sketch._tile
        finished = []

        def slow(sk_, bg, j0, j1, buf):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.3)
            tile = original(sk_, bg, j0, j1, buf)
            finished.append((j0, j1))
            return tile

        monkeypatch.setattr(sketch, "_tile", slow)
        _use(monkeypatch, True)
        sk = GaussianSketcher(8, 5, 60)

        def consume():
            for _t0, _t1, _tile in sketch._tiles(sk, 0, 60):
                raise HelperFailed("the caller fails at its first tile")

        with pytest.raises(HelperFailed):
            consume()
        assert finished == [(0, 4), (4, 8)]
        monkeypatch.setattr(sketch, "_tile", original)
        assert self._fresh_walk_is_exact(monkeypatch)

    def test_a_fault_in_the_helper_surfaces_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        original = sketch._tile

        def failing(sk_, bg, j0, j1, buf):
            if j0 == 12:
                raise HelperFailed(f"tile at {j0} on {threading.current_thread().name}")
            return original(sk_, bg, j0, j1, buf)

        monkeypatch.setattr(sketch, "_tile", failing)
        _use(monkeypatch, True)
        sk = GaussianSketcher(8, 5, 60)
        seen = []
        with pytest.raises(HelperFailed, match="tile at 12") as err:
            for t0, _t1, _tile in sketch._tiles(sk, 0, 60):
                seen.append(t0)
        # Tile 3 (columns 12-16) is the helper's; the walk stops before it.
        assert seen == [0, 4, 8]
        assert threading.current_thread().name not in str(err.value)
        monkeypatch.setattr(sketch, "_tile", original)
        assert self._fresh_walk_is_exact(monkeypatch)


def _run_in_child(fn, timeout):
    # fn() in a forked child; its exit code, or None if it did not end
    # within timeout seconds (it is then killed).
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            code = 0 if fn() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    @staticmethod
    def _walk_in_child():
        sk = GaussianSketcher(9, 5, 60)
        tiles = [tile.copy() for *_, tile in sketch._tiles(sk, 0, 60)]
        return np.array_equal(np.hstack(tiles), sk.column_block(0, 60))

    def test_a_forked_child_walks_to_the_end(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        _use(monkeypatch, True)
        assert self._walk_in_child()  # the helper thread now runs here
        assert _run_in_child(self._walk_in_child, timeout=60) == 0

    def test_the_parents_helper_queue_hangs_a_child(self, monkeypatch):
        # Negative control: a child that keeps the parent's job queue, whose
        # thread did not survive the fork, waits for its first helper tile
        # forever.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        _use(monkeypatch, True)
        assert self._walk_in_child()
        jobs = sketch._helper_jobs

        def inherited():
            sketch._helper_jobs = jobs
            return self._walk_in_child()

        assert _run_in_child(inherited, timeout=1.0) is None


def _write_pair(tmp_path, n, cols, bad_row=None):
    # DPMT files A and B of n x cols; a NaN in A's row bad_row, if given,
    # which the release finds when it reads that row's chunk.
    rng = np.random.default_rng(n)
    paths = [str(tmp_path / "a.dpmt"), str(tmp_path / "b.dpmt")]
    for path in paths:
        cli.save_matrix(path, rng.standard_normal((n, cols)))
    if bad_row is not None:
        with open(paths[0], "r+b") as fh:
            fh.seek(cli._MATRIX_HEADER.size + 8 * cols * bad_row)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
    return paths


def _multiply_argv(paths, report, oracle=False):
    argv = ["multiply", "--input", paths[0], "--input-b", paths[1], "--format", "dpbin",
            "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2", "--seed", "0",
            "--report", str(report)]
    return argv + (["--oracle"] if oracle else [])


class TestReleaseScope:
    """On 2 CPUs a CLI multiply or regress release whose rows to a tile of
    its widest input (all n, if fewer) span three half tiles or more runs
    its mechanism with BLAS on one thread and walks on two, and gives BLAS
    back its count afterwards; the --oracle scoring runs outside. Every
    other release changes nothing."""

    @staticmethod
    def _spy_release(monkeypatch, state):
        # What a release's tiles and its --oracle scoring each see: the BLAS
        # count and whether walks are split.
        seen = {"tiles": set(), "scoring": []}
        original_tile, original_errors = sketch._tile, harness.matprod_errors

        def tile(*args):
            seen["tiles"].add((state["threads"], sketch._split_walks))
            return original_tile(*args)

        def errors(*args):
            seen["scoring"].append((state["threads"], sketch._split_walks))
            return original_errors(*args)

        monkeypatch.setattr(sketch, "_tile", tile)
        monkeypatch.setattr(harness, "matprod_errors", errors)
        return seen

    def test_a_release_runs_on_one_thread_and_restores_the_count(self, tmp_path, monkeypatch):
        # 1,000 rows at r = 74: they span three half tiles of 442.
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        seen = self._spy_release(monkeypatch, state)
        paths = _write_pair(tmp_path, 1000, 3)
        assert cli.main(_multiply_argv(paths, tmp_path / "r.json", oracle=True)) == 0
        assert seen["tiles"] == {(1, True)} and seen["scoring"] == [(3, False)]
        assert state["set"] == [1, 3] and state["threads"] == 3
        assert sketch._split_walks is False

    @pytest.mark.parametrize(
        "cpus, command, rows",
        [(4, "multiply", 1000), (1, "multiply", 1000), (2, "multiply", 884), (2, "lra", 1000)],
        ids=["4-cpus", "1-cpu", "two-half-tiles", "lra"],
    )
    def test_other_releases_change_nothing(self, tmp_path, monkeypatch, cpus, command, rows):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: cpus)
        state = _fake_blas(monkeypatch, 3)
        seen = self._spy_release(monkeypatch, state)
        paths = _write_pair(tmp_path, rows, 3)
        if command == "lra":
            argv = ["lra", "--input", paths[0], "--format", "dpbin", "--rank", "1", "--oversample", "2",
                    "--eps", "1", "--delta", "0.01", "--seed", "0", "--report", str(tmp_path / "r.json")]
        else:
            argv = _multiply_argv(paths, tmp_path / "r.json")
        assert cli.main(argv) == 0
        assert seen["tiles"] == {(3, False)} and state["set"] == []

    def test_a_failed_release_restores_the_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        paths = _write_pair(tmp_path, 1000, 3, bad_row=937)
        assert cli.main(_multiply_argv(paths, tmp_path / "r.json")) == 1
        assert "non-finite" in capsys.readouterr().err
        assert state["set"] == [1, 3] and state["threads"] == 3
        assert sketch._split_walks is False

    def test_no_entry_point_changes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sketch, "_blas_thread_fns", lambda: None)
        paths = _write_pair(tmp_path, 40, 3)
        assert cli.main(_multiply_argv(paths, tmp_path / "r.json")) == 0

    def test_main_leaves_the_library_count_as_it_found_it(self, tmp_path, capsys):
        fns = sketch._blas_thread_fns()
        if fns is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        before = fns[0]()
        paths = _write_pair(tmp_path, 1000, 3)
        assert cli.main(_multiply_argv(paths, tmp_path / "r.json")) == 0
        assert fns[0]() == before
        paths = _write_pair(tmp_path, 1000, 3, bad_row=937)
        assert cli.main(_multiply_argv(paths, tmp_path / "r.json")) == 1
        assert fns[0]() == before


def _write_csv(path, n, cols, bad_row=None):
    # An n x cols CSV file; a NaN in row bad_row, if given.
    rows = np.random.default_rng(n).standard_normal((n, cols)).tolist()
    lines = [",".join(map(repr, row)) for row in rows]
    if bad_row is not None:
        lines[bad_row] = ",".join(["nan"] * cols)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _lra_csv_argv(path, report, oracle=False):
    argv = ["lra", "--input", path, "--rank", "1", "--oversample", "2", "--eps", "1",
            "--delta", "0.01", "--seed", "0", "--report", str(report)]
    return argv + (["--oracle"] if oracle else [])


@pytest.mark.skipif(not cli._can_fork(), reason="needs os.fork and Python below 3.12")
class TestCsvReleaseScope:
    """On 2 CPUs a CLI release that reads one CSV input of two chunks or
    more (lra) runs with BLAS on one thread while a forked child parses
    every other chunk, and gives BLAS back its count afterwards; its walk
    stays serial and the --oracle scoring runs outside. Every other
    release changes nothing."""

    @pytest.fixture(autouse=True)
    def _forks(self, monkeypatch):
        # lra reads 3-column inputs in chunks of 4 x per_tile(3) = 16 rows.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        self.forks = []
        original = cli._forked_csv_chunks

        def spy(path, step):
            self.forks.append(step)
            return original(path, step)

        monkeypatch.setattr(cli, "_forked_csv_chunks", spy)

    @staticmethod
    def _spy_release(monkeypatch, state):
        # What a release's tiles and its --oracle scoring each see.
        seen = {"tiles": set(), "scoring": []}
        original_tile, original_errors = sketch._tile, harness.lra_errors

        def tile(*args):
            seen["tiles"].add((state["threads"], sketch._split_walks))
            return original_tile(*args)

        def errors(*args):
            seen["scoring"].append((state["threads"], sketch._split_walks))
            return original_errors(*args)

        monkeypatch.setattr(sketch, "_tile", tile)
        monkeypatch.setattr(harness, "lra_errors", errors)
        return seen

    def test_a_release_runs_on_one_thread_and_restores_the_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        seen = self._spy_release(monkeypatch, state)
        path = _write_csv(tmp_path / "a.csv", 40, 3)
        assert cli.main(_lra_csv_argv(path, tmp_path / "r.json", oracle=True)) == 0
        assert self.forks == [16]
        assert seen["tiles"] == {(1, False)} and seen["scoring"] == [(3, False)]
        assert state["set"] == [1, 3] and state["threads"] == 3

    def test_a_failed_release_restores_the_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        path = _write_csv(tmp_path / "a.csv", 40, 3, bad_row=20)
        assert cli.main(_lra_csv_argv(path, tmp_path / "r.json")) == 1
        assert "non-finite entry at line 21" in capsys.readouterr().err
        assert self.forks == [16]
        assert state["set"] == [1, 3] and state["threads"] == 3

    @pytest.mark.parametrize(
        "cpus, blas, rows, python",
        [(1, "takes", 40, None), (4, "takes", 40, None), (2, "takes", 16, None),
         (2, None, 40, None), (2, "stays", 40, None), (2, "takes", 40, (3, 12, 0))],
        ids=["1-cpu", "4-cpus", "one-chunk", "no-entry-point", "blas-count-stays", "python-3.12"],
    )
    def test_other_releases_change_nothing(self, tmp_path, monkeypatch, cpus, blas, rows, python):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: cpus)
        if blas is None:
            monkeypatch.setattr(sketch, "_blas_thread_fns", lambda: None)
            state = {"threads": 3, "set": []}
        else:
            state = _fake_blas(monkeypatch, 3, takes=blas == "takes")
        seen = self._spy_release(monkeypatch, state)
        path = _write_csv(tmp_path / "a.csv", rows, 3)
        with monkeypatch.context() as patch:
            if python is not None:
                patch.setattr(sys, "version_info", python)
            code = cli.main(_lra_csv_argv(path, tmp_path / "r.json"))
        assert code == 0 and self.forks == []
        # A count that does not go to one is set back; nothing else is set.
        assert state["set"] == ([1, 3] if blas == "stays" else [])
        assert seen["tiles"] == {(3, False)}


# A child that runs one CLI release on (at most) two CPUs, the only count
# at which a release enters its thread scope; "no-scope" replaces the release's thread
# scope with a no-op first, and "one-cpu" makes the release see one CPU.
_CHILD = (
    "import contextlib, os, sys\n"
    "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
    "from dpsketch import cli, sketch\n"
    "if sys.argv[1] == 'no-scope':\n"
    "    sketch._release_threads = lambda r, walk: contextlib.nullcontext()\n"
    "if sys.argv[1] == 'one-cpu':\n"
    "    sketch._usable_cpus = lambda: 1\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


class TestOutputsIgnoreBlasThreads:
    @staticmethod
    def _estimate(tmp_path, paths, threads, mode):
        report = tmp_path / f"{mode}-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _CHILD, mode, *_multiply_argv(paths, report)],
                       env=env, check=True, timeout=120)
        return (tmp_path / f"{mode}-{threads}.estimate.dpmt").read_bytes()

    def test_multiply_estimate_is_the_same_at_one_and_two_threads(self, tmp_path):
        # 900 x 20 inputs at r = 74, whose rows span three half tiles: the
        # smallest tried (900 x 10, 900 x 20, 1000 x 10, ...) at which the
        # runs without the scope differ. Both walk serially; they differ in
        # how one and two BLAS threads sum the products (6.7e-16 relative).
        if (sketch._blas_thread_fns() is None or sketch._usable_cpus() < 2
                or not hasattr(os, "sched_setaffinity")):
            pytest.skip("needs numpy's bundled OpenBLAS and 2 usable CPUs")
        paths = _write_pair(tmp_path, 900, 20)
        scoped = [self._estimate(tmp_path, paths, t, "scope") for t in (1, 2)]
        assert scoped[0] == scoped[1]
        bare = [self._estimate(tmp_path, paths, t, "no-scope") for t in (1, 2)]
        assert bare[0] != bare[1]

    def test_lra_csv_factors_are_the_one_thread_serial_ones(self, tmp_path):
        # A 1000 x 300 CSV at k = 10 is read in two chunks of 872 rows: the
        # scoped release (two-process parse, BLAS on one thread) publishes
        # the bytes of a serial-parse release at one BLAS thread. Negative
        # control: the serial release at two BLAS threads differs, so the
        # input is big enough for the BLAS count to show.
        if (sketch._blas_thread_fns() is None or sketch._usable_cpus() < 2
                or not hasattr(os, "sched_setaffinity") or not cli._can_fork()):
            pytest.skip("needs numpy's bundled OpenBLAS, 2 usable CPUs and os.fork below Python 3.12")
        path = _write_csv(tmp_path / "a.csv", 1000, 300)

        def factors(mode, threads):
            report = tmp_path / f"{mode}-{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
            argv = ["lra", "--input", path, "--rank", "10", "--eps", "1", "--delta", "0.01",
                    "--seed", "0", "--report", str(report)]
            subprocess.run([sys.executable, "-c", _CHILD, mode, *argv],
                           env=env, check=True, timeout=120)
            return [(tmp_path / f"{mode}-{threads}.{name}.dpmt").read_bytes()
                    for name in ("uhat", "lam")]

        serial = factors("one-cpu", 1)
        assert factors("scope", 2) == serial
        assert factors("one-cpu", 2) != serial

"""The two-thread projection walk, the execution plan of CLI releases, and
the reproducibility table: release bytes across BLAS counts, CPU counts and
tile widths, each release run in this process.

A walk generates its tiles on two threads only inside the scope of a
release plan that says so (``sketch.plan_release``, applied by
``sketch._plan_scope``), and only where BLAS went to one thread there. Most
tests here pick the path by replacing ``sketch._split_walks``, the context
variable the scope sets; the serial walk is the reference the two-thread
walk must equal bit for bit.
"""
import contextvars
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dpsketch import cli, harness, lra, matprod, sketch
from dpsketch.sketch import GaussianSketcher

# The name of a two-thread walk's helper thread.
HELPER = "dpsketch-tiles"


def _use(monkeypatch, split):
    # Every thread's walks split, or none do: the variable's default.
    monkeypatch.setattr(sketch, "_split_walks", contextvars.ContextVar("split_walks", default=split))


def _walk(monkeypatch, split, sk, j0, j1):
    # The walk's (t0, t1, tile) triples, each tile copied out of its buffer.
    _use(monkeypatch, split)
    return [(t0, t1, tile.copy()) for t0, t1, tile in sketch._tiles(sk, j0, j1)]


def _joined(walk):
    return np.hstack([tile for *_, tile in walk])


def _cases():
    # Seeded random (r, m, j0, j1, TILE_ENTRIES), then the edge cases:
    # numpy-integer starts, a one-tile range, an odd tile count, and r over
    # the tile (one-column tiles, which have no half and walk serially).
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


def _plan(command="multiply", fmt="dpbin", rows=9, widths=(3, 3), r=5, cpus=2, blas=True,
          fork=True):
    return sketch.plan_release(command, fmt, rows, widths, r, cpus, blas, fork)


# An lra release of a CSV file that forks its reader: 40-entry tiles give
# chunks of 4 x per_tile(3) = 52 rows, and the file holds two chunks.
_LRA_CSV = {"command": "lra", "fmt": "csv", "rows": 53, "widths": (3,)}

# The plan's inputs, each row one change from a multiply release that
# splits its walks or an lra release that forks its CSV reader, and the
# count numpy's OpenBLAS entry points then take ("takes", "stays" at 2, or
# None: no entry points); then the walk and the CSV reader planned. At
# 40-entry tiles, per_tile(5) is 8 columns and a walk tile 4, so the 9
# rows of a multiply release span three walk tiles and 8 rows span two.
SELECTION = [
    ("2-cpus", {}, "takes", "two-thread", "serial"),
    ("1-cpu", {"cpus": 1}, "takes", "serial", "serial"),
    ("4-cpus", {"cpus": 4}, "takes", "serial", "serial"),
    ("no-entry-point", {"blas": False}, None, "serial", "serial"),
    ("blas-stays-at-2", {}, "stays", "two-thread", "serial"),
    ("two-half-tiles", {"rows": 8}, "takes", "serial", "serial"),
    ("one-column-tiles", {"r": 50, "rows": 40, "widths": (1, 1)}, "takes", "serial", "serial"),
    ("regress", {"command": "regress", "widths": (3, 1)}, "takes", "two-thread", "serial"),
    ("wide-input", {"widths": (3, 5)}, "takes", "serial", "serial"),
    ("two-csv-inputs", {"fmt": "csv"}, "takes", "two-thread", "serial"),
    ("csv-2-cpus", _LRA_CSV, "takes", "serial", "forked"),
    ("csv-1-cpu", dict(_LRA_CSV, cpus=1), "takes", "serial", "serial"),
    ("csv-4-cpus", dict(_LRA_CSV, cpus=4), "takes", "serial", "serial"),
    ("csv-one-chunk", dict(_LRA_CSV, rows=52), "takes", "serial", "serial"),
    ("csv-no-entry-point", dict(_LRA_CSV, blas=False), None, "serial", "serial"),
    ("csv-blas-count-stays", _LRA_CSV, "stays", "serial", "forked"),
    ("csv-python-3.12", dict(_LRA_CSV, fork=False), "takes", "serial", "serial"),
    ("lra-dpbin", dict(_LRA_CSV, fmt="dpbin"), "takes", "serial", "serial"),
]


class TestSelection:
    """The plan from its inputs, and what its scope does: two threads only
    where the plan splits walks and BLAS went to one thread, a forked CSV
    reader only where the plan forks it and BLAS went to one thread, and
    the serial walk everywhere else."""

    @pytest.fixture(autouse=True)
    def _small_tiles(self, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)

    @staticmethod
    def _spans_and_threads(monkeypatch, r=5):
        # A walk's (t0, t1) spans, and the names of the threads that
        # generated its tiles.
        names = []
        original = sketch._tile

        def naming(*args):
            names.append(threading.current_thread().name)
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(sketch, "_tile", naming)
            sk = GaussianSketcher(1, r, 40)
            spans = [(t0, t1) for t0, t1, _tile in sketch._tiles(sk, 0, 40)]
        return spans, set(names)

    def test_outside_the_scope_walks_are_serial(self, monkeypatch):
        # Even where BLAS already runs on one thread, as in a library caller
        # that pins BLAS itself: no helper thread.
        _fake_blas(monkeypatch, 1)
        assert sketch._split_walks.get() is False
        _spans, names = self._spans_and_threads(monkeypatch)
        assert names == {threading.current_thread().name}

    @pytest.mark.parametrize(
        "inputs, blas, walk, reader", [row[1:] for row in SELECTION], ids=[row[0] for row in SELECTION]
    )
    def test_selection(self, monkeypatch, inputs, blas, walk, reader):
        plan = _plan(**inputs)
        planned = walk == "two-thread" or reader == "forked"
        assert (plan.walk, plan.csv_reader, plan.one_blas) == (walk, reader, planned)
        if blas is None:
            monkeypatch.setattr(sketch, "_blas_thread_fns", lambda: None)
        else:
            state = _fake_blas(monkeypatch, 2, takes=blas == "takes")
        took = planned and blas == "takes"
        split = took and walk == "two-thread"
        serial, _names = self._spans_and_threads(monkeypatch)
        with sketch._plan_scope(plan) as execution:
            assert sketch._split_walks.get() is split
            assert execution["walk"] == ("two-thread" if split else "serial")
            assert execution["csv_reader"] == (reader if took else "serial")
            # The walk follows: the serial walk's tiles, generated on two
            # threads or on the caller's alone.
            spans, names = self._spans_and_threads(monkeypatch)
            assert spans == serial and len(names) == (2 if split else 1)
            if blas is not None:
                # BLAS is pinned only where the plan says so.
                assert state["set"] == ([1] if planned else [])
                assert execution["blas_threads"] == (1 if took else 2)
        assert sketch._split_walks.get() is False
        if blas is not None:
            assert state["threads"] == 2 and state["set"] == ([1, 2] if planned else [])

    def test_python_3_12_may_not_fork(self, monkeypatch):
        # It warns on a fork in a process with threads: the csv-python-3.12
        # row's input.
        monkeypatch.setattr(sys, "version_info", (3, 12, 0))
        assert cli._can_fork() is False

    def test_no_memfd_may_not_fork(self, monkeypatch):
        # The forked parser's blocks come back through a memfd.
        monkeypatch.delattr(os, "memfd_create", raising=False)
        assert cli._can_fork() is False

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
        spans, names = self._spans_and_threads(monkeypatch, r=50)
        assert spans == [(j, j + 1) for j in range(40)]
        assert names == set(opened) and opened == [threading.current_thread().name]

    def test_the_scope_restores_both_when_its_body_raises(self, monkeypatch):
        state = _fake_blas(monkeypatch, 3)
        with pytest.raises(HelperFailed):
            with sketch._plan_scope(_plan()):
                assert sketch._split_walks.get()
                raise HelperFailed("the release fails")
        assert sketch._split_walks.get() is False
        assert state["set"] == [1, 3] and state["threads"] == 3

    def test_scopes_on_many_threads_share_one_pin(self, monkeypatch):
        # Six threads open and close scopes that pin BLAS, switching as often
        # as the interpreter allows, and one more opens a scope that does
        # not: every pinned scope runs at one thread, only the first open
        # saves the count and only the last to close gives it back.
        state = _fake_blas(monkeypatch, 3)
        pinned, unpinned = _plan(), _plan(cpus=1)
        wrong = []

        def scopes(plan, count):
            for _ in range(count):
                with sketch._plan_scope(plan) as execution:
                    if plan.one_blas and (state["threads"], execution["walk"]) != (1, "two-thread"):
                        wrong.append((state["threads"], execution["walk"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scopes, args=(pinned, 200)) for _ in range(6)]
            threads.append(threading.Thread(target=scopes, args=(unpinned, 200)))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and sketch._blas_pins[0] == 0
        assert state["threads"] == 3 and state["set"][-1] == 3
        assert state["set"].count(1) == state["set"].count(3) >= 1

    @pytest.mark.parametrize(
        "mask, split", [({0}, False), ({0, 3}, True), ({0, 1, 2, 3}, False)]
    )
    def test_usable_cpus_are_the_affinity_mask(self, monkeypatch, mask, split):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        assert sketch._usable_cpus() == len(mask)
        assert _plan(cpus=sketch._usable_cpus()).walk == ("two-thread" if split else "serial")

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
        assert [(t0, t1) for t0, t1, _tile in split] == [(t0, t1) for t0, t1, _tile in serial]
        for t0, t1, tile in split:
            assert np.array_equal(tile, sk.column_block(t0, t1))

    def test_a_helper_stream_that_does_not_skip_fails(self, monkeypatch, helper_skips_nothing):
        # Negative control: the helper's stream stays at the walk's first
        # column, so every tile the helper generates (the second at least)
        # takes the words of earlier columns; the caller's tiles stay right.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        sk = GaussianSketcher(5, 5, 40)
        threads = _tile_threads(monkeypatch)
        walk = _walk(monkeypatch, True, sk, 3, 36)
        on_helper = {t0 for t0, name in threads.items() if name == HELPER}
        assert 4 in on_helper and len(on_helper) < len(walk)
        for t0, t1, tile in walk:
            assert np.array_equal(tile, sk.column_block(t0, t1)) == (t0 not in on_helper)


def _tile_threads(monkeypatch):
    """From here on, the name of the thread that generated each tile,
    by its first column."""
    threads = {}
    original = sketch._tile

    def naming(sk_, bg, j0, j1, buf):
        threads[j0] = threading.current_thread().name
        return original(sk_, bg, j0, j1, buf)

    monkeypatch.setattr(sketch, "_tile", naming)
    return threads


class TestOrder:
    def test_each_column_once_in_order_on_both_threads(self, monkeypatch, tile_calls):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        sk = GaussianSketcher(2, 5, 100)
        threads = _tile_threads(monkeypatch)
        opened, original = [], sketch._philox

        def philox(seed, offset):
            opened.append((threading.current_thread().name, offset))
            return original(seed, offset)

        monkeypatch.setattr(sketch, "_philox", philox)
        walk = _walk(monkeypatch, True, sk, 3, 98)
        spans = [(t0, t1) for t0, t1, _tile in walk]
        assert spans[0][0] == 3 and spans[-1][1] == 98
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        # Every tile generated once, in the walk's own spans, and 5 x 95
        # normals in all: the first on the caller, the second on the
        # helper, and each of the others on whichever of the two claimed it.
        assert [(j0, j1) for _r, j0, j1 in sorted(tile_calls, key=lambda c: c[1])] == spans
        assert tile_calls.normals == 5 * 95
        main = threading.current_thread().name
        assert (threads[spans[0][0]], threads[spans[1][0]]) == (main, HELPER)
        assert set(threads.values()) == {main, HELPER}
        # One stream per thread, each opened at the walk's first column.
        assert sorted(opened) == sorted([(main, 3 * sk._wpc), (HELPER, 3 * sk._wpc)])


class TestConcurrentWalks:
    def test_walks_from_many_threads_are_exact(self, monkeypatch):
        # Six threads walk at once on 2 CPUs, switching as often as the
        # interpreter allows, each walk with a helper thread of its own;
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
        assert _helpers() == []


class HelperFailed(Exception):
    pass


def _helpers():
    return [t for t in threading.enumerate() if t.name == HELPER]


def _run_out(walk):
    for _t0, _t1, _tile in walk:
        pass


def _close_at_its_first_tile(walk):
    next(walk)
    walk.close()


def _raises(walk):
    with pytest.raises(HelperFailed):
        _run_out(walk)


class TestHelperEndsWithItsWalk:
    """A two-thread walk starts a helper thread of its own, and however
    the walk ends, its helper has ended too when it returns."""

    @pytest.mark.parametrize(
        "end, raiser",
        [(_run_out, None), (_close_at_its_first_tile, None), (_raises, HELPER), (_raises, "caller")],
        ids=["to-its-end", "closed-at-its-first-tile", "helper-raises", "caller-raises"])
    def test_no_helper_outlives_its_walk(self, monkeypatch, end, raiser):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        _use(monkeypatch, True)
        original, alive = sketch._tile, []

        def tile(sk_, bg, j0, j1, buf):
            alive.append(len(_helpers()))
            if raiser == (HELPER if threading.current_thread().name == HELPER else "caller"):
                raise HelperFailed(f"tile at {j0}")
            return original(sk_, bg, j0, j1, buf)

        monkeypatch.setattr(sketch, "_tile", tile)
        end(sketch._tiles(GaussianSketcher(8, 5, 60), 0, 60))
        # The walk split, on one helper, which may end before the walk does.
        assert alive and max(alive) == 1
        assert _helpers() == []


class TestFaults:
    @staticmethod
    def _fresh_walk_is_exact(monkeypatch):
        sk = GaussianSketcher(8, 5, 60)
        return np.array_equal(_joined(_walk(monkeypatch, True, sk, 0, 60)), sk.column_block(0, 60))

    def test_a_walk_left_early_waits_for_the_helper(self, monkeypatch):
        # The caller raises at the first tile, while the helper is still
        # generating the second (slowed down here): the walk returns only
        # once that tile is done, the helper claims no other, and the next
        # walk is bit-exact.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        original = sketch._tile
        finished = []

        def slow(sk_, bg, j0, j1, buf):
            if threading.current_thread().name == HELPER:
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
        # The helper raises at the second tile it generates, whichever it
        # claimed; the caller pauses after each tile, so the helper claims
        # more than one. The walk yields every tile before that one, then
        # raises the helper's fault.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        original = sketch._tile
        on_helper = []

        def failing(sk_, bg, j0, j1, buf):
            if threading.current_thread().name == HELPER:
                on_helper.append(j0)
                if len(on_helper) == 2:
                    raise HelperFailed(f"tile at {j0} on {HELPER}")
            return original(sk_, bg, j0, j1, buf)

        monkeypatch.setattr(sketch, "_tile", failing)
        _use(monkeypatch, True)
        sk = GaussianSketcher(8, 5, 60)
        seen = []
        with pytest.raises(HelperFailed) as err:
            for t0, _t1, _tile in sketch._tiles(sk, 0, 60):
                seen.append(t0)
                time.sleep(0.005)
        assert on_helper[0] == 4 and len(on_helper) == 2
        assert str(err.value) == f"tile at {on_helper[1]} on {HELPER}"
        assert seen == list(range(0, on_helper[1], 4))
        monkeypatch.setattr(sketch, "_tile", original)
        assert self._fresh_walk_is_exact(monkeypatch)


def _alternating_split(sk, j0, j1, width):
    # The fixed split two-thread walks took before tiles went to whichever
    # thread is free: the caller generates the even tiles and a helper
    # thread the odd ones, each handed out as the caller starts the tile
    # before it. The balance tests' negative control.
    spans = [(t0, min(t0 + width, j1)) for t0 in range(j0, j1, width)]
    with ThreadPoolExecutor(1, thread_name_prefix=HELPER) as helper:
        odd = None
        for i, (t0, t1) in enumerate(spans):
            if i % 2 == 0 and i + 1 < len(spans):
                odd = helper.submit(sk.column_block, *spans[i + 1])
            yield t0, t1, odd.result() if i % 2 else sk.column_block(t0, t1)


class TestBalance:
    """Tiles go to whichever thread is free: with the caller slowed between
    tiles the helper generates most of them, with the helper slowed inside
    ``_tile`` the caller does, and either way the tiles are column_block's.
    The fixed alternation generates half on each thread, and fails."""

    @staticmethod
    def _walk(monkeypatch, slow):
        # A walk of 16 tiles of 4 columns with the caller or the helper
        # slowed: whether it gives column_block's columns, and how many
        # tiles the caller and the helper generated.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        _use(monkeypatch, True)
        caller, original, on_caller = threading.current_thread(), sketch._tile, []

        def tile(sk_, bg, j0, j1, buf):
            on_caller.append(threading.current_thread() is caller)
            if slow == "helper" and not on_caller[-1]:
                time.sleep(0.02)
            return original(sk_, bg, j0, j1, buf)

        sk = GaussianSketcher(3, 5, 64)
        tiles = []
        with monkeypatch.context() as patch:
            patch.setattr(sketch, "_tile", tile)
            for _t0, _t1, t in sketch._tiles(sk, 0, 64):
                tiles.append(t.copy())
                if slow == "caller":
                    time.sleep(0.01)
        exact = np.array_equal(np.hstack(tiles), sk.column_block(0, 64))
        return exact, on_caller.count(True), on_caller.count(False)

    @staticmethod
    def _free_thread_did_most(slow, by_caller, by_helper):
        return (by_helper if slow == "caller" else by_caller) > 16 / 2

    @pytest.mark.parametrize("slow", ["caller", "helper"])
    def test_the_free_thread_generates_most_tiles(self, monkeypatch, slow):
        exact, by_caller, by_helper = self._walk(monkeypatch, slow)
        assert exact and by_caller + by_helper == 16
        assert self._free_thread_did_most(slow, by_caller, by_helper)

    @pytest.mark.parametrize("slow", ["caller", "helper"])
    def test_a_fixed_alternation_fails(self, monkeypatch, slow):
        monkeypatch.setattr(sketch, "_split_tiles", _alternating_split)
        exact, by_caller, by_helper = self._walk(monkeypatch, slow)
        assert exact and (by_caller, by_helper) == (8, 8)
        assert not self._free_thread_did_most(slow, by_caller, by_helper)

    def test_a_caller_stream_that_does_not_skip_fails(self, monkeypatch, caller_skips_nothing):
        # Negative control: with the helper slowed, the caller claims the
        # tiles past the helper's; a caller stream that stays put gives
        # them the words of earlier columns.
        exact, by_caller, _by_helper = self._walk(monkeypatch, "helper")
        assert not exact and by_caller > 1


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
        # A walk in the parent, then one in a child forked after it: each
        # starts a helper of its own.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 40)
        _use(monkeypatch, True)
        assert self._walk_in_child()
        assert _run_in_child(self._walk_in_child, timeout=60) == 0


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


def _multiply_argv(paths, report, oracle=False, command="multiply"):
    # A multiply release of the pair, or a regress release with the same
    # options (B's columns are its queries).
    argv = [command, "--input", paths[0], "--input-b", paths[1], "--format", "dpbin",
            "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2", "--seed", "0",
            "--report", str(report)]
    return argv + (["--oracle"] if oracle else [])


class TestReleaseScope:
    """On 2 CPUs a CLI multiply or regress release whose plan splits its
    walks runs its mechanism with BLAS on one thread and walks on two, and
    gives BLAS back its count afterwards; the --oracle scoring runs
    outside. Every other release changes nothing."""

    @staticmethod
    def _spy_release(monkeypatch, state):
        # What a release's tiles and its --oracle scoring each see: the BLAS
        # count, and the thread that generates a tile or whether walks split.
        seen = {"tiles": set(), "scoring": []}
        original_tile, original_errors = sketch._tile, harness.matprod_errors

        def tile(*args):
            seen["tiles"].add((state["threads"], threading.current_thread().name))
            return original_tile(*args)

        def errors(*args):
            seen["scoring"].append((state["threads"], sketch._split_walks.get()))
            return original_errors(*args)

        monkeypatch.setattr(sketch, "_tile", tile)
        monkeypatch.setattr(harness, "matprod_errors", errors)
        return seen

    def test_a_release_runs_on_one_thread_and_restores_the_count(self, tmp_path, monkeypatch):
        # 1,000 rows at r = 74: they span three walk tiles of 442.
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        seen = self._spy_release(monkeypatch, state)
        paths = _write_pair(tmp_path, 1000, 3)
        assert cli.main(_multiply_argv(paths, tmp_path / "r.json", oracle=True)) == 0
        main = threading.current_thread().name
        assert seen["tiles"] == {(1, main), (1, HELPER)} and seen["scoring"] == [(3, False)]
        assert state["set"] == [1, 3] and state["threads"] == 3
        assert sketch._split_walks.get() is False

    def test_overlapping_releases_leave_nothing_behind(self, tmp_path, monkeypatch):
        # Release A enters its scope on one thread, then release B on
        # another; A ends, and only then does B's walk start. It still
        # splits, and once both have ended BLAS has its count back and a
        # library walk is serial again.
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        events = {name: threading.Event() for name in ("A", "B", "A-done")}
        original_stream, original_tile = matprod._project_stream, sketch._tile
        names = set()

        def stream(*args):
            # Each release's walk starts inside its scope, once the other
            # release is in its own (A) or has ended (B).
            me = threading.current_thread().name
            events[me].set()
            if not events["B" if me == "A" else "A-done"].wait(60):
                raise RuntimeError(f"release {me} waited in vain")
            return original_stream(*args)

        def tile(*args):
            if events["A-done"].is_set():
                names.add(threading.current_thread().name)
            return original_tile(*args)

        monkeypatch.setattr(matprod, "_project_stream", stream)
        monkeypatch.setattr(sketch, "_tile", tile)
        codes = {}

        def release(name):
            (tmp_path / name).mkdir()
            paths = _write_pair(tmp_path / name, 1000, 3)
            codes[name] = cli.main(_multiply_argv(paths, tmp_path / name / "r.json"))

        threads = {name: threading.Thread(target=release, args=(name,), name=name) for name in "AB"}
        threads["A"].start()
        assert events["A"].wait(60)
        threads["B"].start()
        threads["A"].join(60)
        events["A-done"].set()
        threads["B"].join(60)
        assert not any(t.is_alive() for t in threads.values())
        assert codes == {"A": 0, "B": 0}
        assert names == {"B", HELPER}
        assert state["threads"] == 3 and state["set"] == [1, 3]
        names.clear()
        GaussianSketcher(1, 74, 3000).project_blocks(0, [np.ones((3000, 1))])
        assert names == {threading.current_thread().name}

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
        assert seen["tiles"] == {(3, threading.current_thread().name)} and state["set"] == []

    def test_a_failed_release_restores_the_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        paths = _write_pair(tmp_path, 1000, 3, bad_row=937)
        assert cli.main(_multiply_argv(paths, tmp_path / "r.json")) == 1
        assert "non-finite" in capsys.readouterr().err
        assert state["set"] == [1, 3] and state["threads"] == 3
        assert sketch._split_walks.get() is False

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


@pytest.mark.skipif(not cli._can_fork(), reason="needs os.fork, os.memfd_create and Python below 3.12")
class TestCsvReleaseScope:
    """On 2 CPUs a CLI lra release whose plan forks its CSV reader runs
    with BLAS on one thread while it and a forked child each parse the
    chunks they claim, and gives BLAS back its count afterwards; its walk
    stays serial and the --oracle scoring runs outside. Which releases fork
    is the plan's (TestSelection)."""

    @pytest.fixture(autouse=True)
    def _forks(self, monkeypatch):
        # lra reads 3-column inputs in chunks of 4 x per_tile(3) = 16 rows.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        self.forks = []
        original = cli._forked_csv_chunks

        def spy(path, step, *probe_and_record):
            self.forks.append(step)
            return original(path, step, *probe_and_record)

        monkeypatch.setattr(cli, "_forked_csv_chunks", spy)

    @staticmethod
    def _spy_release(monkeypatch, state):
        # What a release's tiles and its --oracle scoring each see.
        seen = {"tiles": set(), "scoring": []}
        original_tile, original_errors = sketch._tile, harness.lra_errors

        def tile(*args):
            seen["tiles"].add((state["threads"], threading.current_thread().name))
            return original_tile(*args)

        def errors(*args):
            seen["scoring"].append((state["threads"], sketch._split_walks.get()))
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
        main = threading.current_thread().name
        assert seen["tiles"] == {(1, main)} and seen["scoring"] == [(3, False)]
        assert state["set"] == [1, 3] and state["threads"] == 3

    def test_a_failed_release_restores_the_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        state = _fake_blas(monkeypatch, 3)
        path = _write_csv(tmp_path / "a.csv", 40, 3, bad_row=20)
        assert cli.main(_lra_csv_argv(path, tmp_path / "r.json")) == 1
        assert "non-finite entry at line 21" in capsys.readouterr().err
        assert self.forks == [16]
        assert state["set"] == [1, 3] and state["threads"] == 3


def _record_is_true(execution, seen):
    """Whether a release's execution record says what its run did: ``seen``
    holds the threads that generated its tiles, the BLAS counts those tiles
    ran at, the children the release forked and the blocks it received
    from them."""
    return (execution["walk"] == ("two-thread" if HELPER in seen["threads"] else "serial")
            and execution["csv_reader"] == ("forked" if seen["forks"] else "serial")
            and execution["parser_chunks"] == seen["received"]
            and seen["blas"] == {execution["blas_threads"]})


@pytest.fixture
def two_cpus():
    """The process on two of its CPUs, where it has two or more."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(mask)[:2])
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@pytest.mark.usefixtures("two_cpus")
class TestExecutionRecord:
    """The execution record of a release of each command says what ran,
    on two of the process's CPUs where it has two: the walk by the threads
    that generated its tiles, the CSV reader by the children it forked and
    the BLAS count by the count its tiles ran at, and the chunks its parser
    supplied by the blocks the release received."""

    @staticmethod
    def _release(tmp_path, monkeypatch, command):
        # The record of a release of a small fixture, and what the release did.
        fns = sketch._blas_thread_fns()
        seen = {"threads": set(), "blas": set(), "forks": [], "received": 0}
        original_tile, original_fork, original_receive = sketch._tile, os.fork, cli._receive_block

        def tile(*args):
            seen["threads"].add(threading.current_thread().name)
            seen["blas"].add(fns[0]() if fns else None)
            return original_tile(*args)

        def fork():
            pid = original_fork()
            if pid:
                seen["forks"].append(pid)
            return pid

        def receive(*args):
            block, slot = original_receive(*args)
            seen["received"] += block is not None
            return block, slot

        monkeypatch.setattr(sketch, "_tile", tile)
        monkeypatch.setattr(os, "fork", fork, raising=False)
        monkeypatch.setattr(cli, "_receive_block", receive)
        report = tmp_path / "r.json"
        if command == "lra":
            # Chunks of 4 x per_tile(3) = 16 rows, so the 40 rows take three.
            monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
            argv = _lra_csv_argv(_write_csv(tmp_path / "a.csv", 40, 3), report)
        else:
            # 1,000 rows span three walk tiles or more at either r.
            argv = _multiply_argv(_write_pair(tmp_path, 1000, 3), report, command=command)
        assert cli.main(argv) == 0
        return json.loads(report.read_text())["execution"], seen

    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    def test_the_record_says_what_ran(self, tmp_path, monkeypatch, command):
        execution, seen = self._release(tmp_path, monkeypatch, command)
        assert execution["usable_cpus"] == sketch._usable_cpus()
        assert _record_is_true(execution, seen)
        # Negative control: the record with its walk forged the other way
        # (serial, where the walk splits) is false.
        forged = "serial" if execution["walk"] == "two-thread" else "two-thread"
        assert not _record_is_true(dict(execution, walk=forged), seen)
        # So is one that counts a block more from the parser.
        forged = execution["parser_chunks"] + 1
        assert not _record_is_true(dict(execution, parser_chunks=forged), seen)


def _full_tile_walk(sk, j0, j1):
    # A serial walk of per_tile(r) columns a tile, twice every walk's width.
    width = sketch.per_tile(sk.r)
    bg = sketch._philox(sk.seed, j0 * sk._wpc)
    for t0 in range(j0, j1, width):
        t1 = min(t0 + width, j1)
        yield t0, t1, sketch._tile(sk, bg, t0, t1, np.empty((t1 - t0) * sk._wpc))


# The reproducibility table. A row is a release of one fixture; a column
# is a setting of the process it runs in: the BLAS count the release
# starts at (BLAS), its usable CPUs (one, patched, or the real two, where
# its plan splits its walks or forks its CSV reader, with BLAS held at one
# thread) and its walk tile width (today's per_tile(r) // 2, or per_tile(r)
# as walks took before). A cell says whether the release publishes the
# reference bytes: those of the release at one BLAS thread on one CPU with
# today's tiles. The BLAS column says which shapes can show a BLAS-count
# difference at all, where an unscoped release at two BLAS threads sums
# its products otherwise: the BLAS axis's negative control. The tiles
# column is the tile axis's; lra's walks there span one tile at either
# width. The CPU axis's is test_a_helper_that_does_not_skip_fails_the_table.
SETTINGS = [(2, 1, "today"), (1, 2, "today"), (2, 2, "today"), (1, 1, "full")]
TABLE = {
    # BLAS, CPUs, tiles:  2,1,today  1,2,today  2,2,today  1,1,full
    "multiply-900x50":   (False,     True,      True,      False),
    "multiply-900x20":   (True,      True,      True,      False),
    "multiply-2000x20":  (True,      True,      True,      False),
    "regress-2000x20":   (True,      True,      True,      False),
    "lra-1000x300":      (False,     True,      True,      True),
}


class TestReproducibility:
    """Every cell of the table, each release run in this process."""

    @pytest.fixture(autouse=True)
    def set_blas(self, two_cpus):
        # The setter of numpy's OpenBLAS count, given back afterwards.
        fns = sketch._blas_thread_fns()
        if fns is None or sketch._usable_cpus() != 2:
            pytest.skip("needs numpy's bundled OpenBLAS and 2 usable CPUs")
        before = fns[0]()
        yield fns[1]
        fns[1](before)

    @pytest.fixture
    def release(self, tmp_path, monkeypatch, set_blas):
        """release(row) gives release(blas, cpus, tiles): the bytes the
        row's release publishes in that setting. At two CPUs its execution
        record must say it split its walks or forked its reader."""

        def fixture(row):
            command, shape = row.split("-")
            rows, cols = map(int, shape.split("x"))
            report = tmp_path / "r.json"
            if command == "lra":
                if not cli._can_fork():
                    pytest.skip("needs os.fork and os.memfd_create below Python 3.12")
                argv = ["lra", "--input", _write_csv(tmp_path / "a.csv", rows, cols), "--rank", "10",
                        "--eps", "1", "--delta", "0.01", "--seed", "0", "--report", str(report)]
                names = ["uhat", "lam"]
            else:
                argv = _multiply_argv(_write_pair(tmp_path, rows, cols), report, command=command)
                names = ["estimate" if command == "multiply" else "solutions"]

            def run(blas, cpus, tiles):
                with monkeypatch.context() as patch:
                    if cpus == 1:
                        patch.setattr(sketch, "_usable_cpus", lambda: 1)
                    if tiles == "full":
                        patch.setattr(sketch, "_tiles", _full_tile_walk)
                        patch.setattr(lra, "_tiles", _full_tile_walk)
                    set_blas(blas)
                    assert cli.main(argv) == 0
                execution = json.loads(report.read_text())["execution"]
                split = execution["walk"] == "two-thread" or execution["csv_reader"] == "forked"
                assert split == (cpus == 2)
                return [(tmp_path / f"r.{name}.dpmt").read_bytes() for name in names]

            return run

        return fixture

    @pytest.mark.parametrize("row", sorted(TABLE))
    def test_every_setting_against_the_reference(self, release, row):
        run = release(row)
        reference = run(1, 1, "today")
        assert tuple(run(*setting) == reference for setting in SETTINGS) == TABLE[row]

    def test_a_helper_that_does_not_skip_fails_the_table(self, release, helper_skips_nothing):
        # The CPU axis's negative control: a fault of the two-thread walk
        # alone moves the bytes of a two-CPU cell.
        run = release("multiply-2000x20")
        assert run(1, 2, "today") != run(1, 1, "today")

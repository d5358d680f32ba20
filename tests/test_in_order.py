"""The in-order claim core (``sketch._in_order``) as one table over its two
transports: the thread transport of a two-thread walk
(``sketch._TileShare``) and the process transport of the forked CSV reader
(``cli._ForkShare``). Each row runs the core over small items that say
which side produced them, with the real transport between the two sides.
What each path adds stays with its own tests: tile bits and where each
thread's Philox stream opens (``tests/test_sketch.py``,
``TestBitExact``), and chunk blocks, faults' messages and the release
scope that ends the reader (``TestForkedCsvReader``).

A row that needs one side to be slow or to fail hooks it: a ``consumer``
or ``worker`` hook runs before that side produces an item (on the helper
thread, or in the forked child), and a late worker waits before each of
its claims.
"""
import os
import threading
import time

import numpy as np
import pytest

from dpsketch import cli, sketch

from conftest import NOTHING, helpers, left_behind, open_fds


class Threads:
    """The thread transport: an item is (index, producer)."""

    cls = sketch._TileShare

    @staticmethod
    def share(n):
        return sketch._TileShare(n)

    @staticmethod
    def made(i, by):
        return i, by

    @staticmethod
    def read(item):
        return item


class Processes:
    """The process transport, over one-row, two-column chunks: the child
    produces the block [i, 1], and this process the chunk (i, [i, 0])."""

    cls = cli._ForkShare

    @staticmethod
    def share(n):
        return cli._ForkShare(n, 1, 2, {"csv_reader": "forked", "parser_chunks": 0})

    @staticmethod
    def made(i, by):
        block = np.array([[i, by == "worker"]], dtype=float)
        return block if by == "worker" else (i, block)

    @staticmethod
    def read(item):
        i0, block = item
        assert block.shape == (1, 2) and block[0, 0] == i0
        return i0, "worker" if block[0, 1] else "consumer"


TRANSPORTS = [
    pytest.param(Threads, id="thread"),
    pytest.param(Processes, id="process", marks=pytest.mark.skipif(
        not cli._can_fork(), reason="needs os.fork, os.memfd_create and Python below 3.12")),
]


class Failed(Exception):
    pass


def _walk(transport, n, consumer=None, worker=None, share=None):
    """The in-order walk of items 0 to n - 1 on ``transport`` (or on
    ``share``, one of its shares): a generator of the items.
    ``consumer(i)`` and ``worker(i)``, where given, run on their side
    before it produces item i."""
    def producer(by, hook):
        def produce(i):
            if hook is not None:
                hook(i)
            return transport.made(i, by)

        return produce

    return sketch._in_order(n, share or transport.share(n), producer("consumer", consumer),
                            lambda: producer("worker", worker))


def _read_out(transport, walk, pause=0.0):
    # (index, producer) of each item, the consumer pausing after each.
    got = []
    for item in walk:
        got.append(transport.read(item))
        time.sleep(pause)
    return got


def _late_worker(transport, monkeypatch, seconds):
    # The worker waits before each claim (only the worker calls claim()).
    original = transport.cls.claim

    def claim(share):
        time.sleep(seconds)
        return original(share)

    monkeypatch.setattr(transport.cls, "claim", claim)


def _logger(log):
    # A hook that appends the index of each item its side produces to log.
    def logged(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")

    return logged


def _logged(log):
    return [int(i) for i in log.read_text().split()] if log.exists() else []


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestInOrder:
    def test_each_item_once_in_order(self, transport, tmp_path):
        # The consumer pauses on each item, so the worker produces some.
        # Each item is produced once, on one side. Item 1 is the helper
        # thread's first, claimed for it before it starts.
        log = tmp_path / "produced"
        got = _read_out(transport, _walk(transport, 12, _logger(log), _logger(log)), pause=0.005)
        assert [i for i, _by in got] == list(range(12)) and sorted(_logged(log)) == list(range(12))
        assert got[0] == (0, "consumer") and {by for _i, by in got} == {"consumer", "worker"}
        if transport is Threads:
            assert got[1] == (1, "worker")

    @pytest.mark.parametrize("slow", ["consumer", "worker"])
    def test_the_free_side_produces_most(self, transport, monkeypatch, slow):
        # 16 items, with one side 20 ms late on each: the other produces
        # most. The two cases are each other's control: a split that does
        # not follow who is free (a fixed alternation gives 8 each) fails one.
        if slow == "worker":
            _late_worker(transport, monkeypatch, 0.02)
        got = _read_out(transport, _walk(transport, 16), pause=0.02 if slow == "consumer" else 0)
        assert [i for i, _by in got] == list(range(16))
        free = "worker" if slow == "consumer" else "consumer"
        assert sum(by == free for _i, by in got) > 16 / 2

    def test_the_worker_runs_at_most_two_items_ahead(self, transport, tmp_path, monkeypatch):
        # The consumer takes 20 ms over each of 12 items; after each, the
        # worker has produced at most two items it has not taken: the
        # free buffers of three, or the two block slots. Negative control
        # (processes): a slot for each of the 12.
        log = tmp_path / "produced"

        def most_ahead():
            log.write_text("")
            most = 0
            for item in _walk(transport, 12, worker=_logger(log)):
                i, _by = transport.read(item)
                time.sleep(0.02)
                most = max(most, sum(k > i for k in _logged(log)))
            return most

        assert most_ahead() == 2
        if transport is Processes:
            monkeypatch.setattr(cli, "_RUN_AHEAD", 12)
            assert most_ahead() > 2

    def test_a_fault_in_the_worker_keeps_its_meaning(self, transport):
        # The worker fails on its second item. On threads the walk yields
        # every item before that one and raises there, and the helper
        # produces no other. The forked child dies instead, and the
        # consumer produces that item and every later one: the child
        # supplies its first item only.
        produced = []

        def second_fails(i):
            produced.append(i)
            if len(produced) == 2:
                raise Failed(f"item {i}")

        got = []
        walk = _walk(transport, 12, worker=second_fails)
        if transport is Threads:
            with pytest.raises(Failed) as err:
                for item in walk:
                    got.append(transport.read(item))
                    time.sleep(0.005)
            assert str(err.value) == f"item {produced[1]}" and produced[0] == 1
            assert [i for i, _by in got] == list(range(produced[1])) and len(produced) == 2
        else:
            got = _read_out(transport, walk, pause=0.005)
            assert [i for i, _by in got] == list(range(12))
            assert [by for _i, by in got].count("worker") == 1

    def test_a_worker_that_cannot_start_leaves_every_item_to_the_consumer(
            self, transport, monkeypatch):
        # A fork that fails leaves the reader's record serial.
        refused = []

        def refuse(*args):
            refused.append(args)
            raise (RuntimeError if transport is Threads else BlockingIOError)("cannot start")

        if transport is Threads:
            monkeypatch.setattr(threading.Thread, "start", refuse)
        else:
            monkeypatch.setattr(os, "fork", refuse)
        fds, share = open_fds(), transport.share(7)
        got = _read_out(transport, _walk(transport, 7, share=share))
        assert got == [(i, "consumer") for i in range(7)] and len(refused) == 1
        if transport is Processes:
            assert share.execution["csv_reader"] == "serial"
        assert left_behind(fds) == NOTHING

    @pytest.mark.parametrize("end", ["to-its-end", "closed-at-its-first-item",
                                     "closed-while-the-worker-is-slow", "worker-raises",
                                     "consumer-raises", "sigchld-ignored"])
    def test_nothing_outlives_the_walk(self, transport, request, tmp_path, end):
        # The raising side fails on every item it produces. A worker that
        # raises ends a thread walk at its first item (item 1); the forked
        # child dies, and the consumer produces every item. Either side
        # counts the helper threads as it produces: a thread walk has one.
        # A slow worker takes 0.2 s over each item: a thread walk closed in
        # the helper's first returns once the helper has finished it, and
        # the helper claims no other; the forked child is killed in it.
        # Where SIGCHLD is ignored, the kernel reaps the forked child as it
        # ends, and the walk runs to its end as any other. A walk after any
        # of these gives each item in order.
        if end == "sigchld-ignored":
            request.getfixturevalue("sigchld_ignored")
        fds, alive, finished = open_fds(), [], tmp_path / "finished"

        def hook(side):
            def count(i):
                alive.append(len(helpers()))
                if end == f"{side}-raises":
                    raise Failed(f"item {i} on the {side}")
                if side == "worker" and end == "closed-while-the-worker-is-slow":
                    time.sleep(0.2)
                    _logger(finished)(i)

            return count

        walk = _walk(transport, 8, hook("consumer"), hook("worker"))
        if end.startswith("closed"):
            next(walk)
            walk.close()
        elif end == "consumer-raises" or (end == "worker-raises" and transport is Threads):
            with pytest.raises(Failed):
                _read_out(transport, walk)
        else:
            assert [i for i, _by in _read_out(transport, walk)] == list(range(8))
        assert max(alive) == (1 if transport is Threads else 0)
        if end == "closed-while-the-worker-is-slow":
            assert _logged(finished) == ([1] if transport is Threads else [])
        assert left_behind(fds) == NOTHING
        assert [i for i, _by in _read_out(transport, _walk(transport, 8))] == list(range(8))

    def test_a_stop_that_leaves_the_worker_fails(self, transport, monkeypatch):
        # Negative control of the row above: with a stop that neither joins
        # nor reaps its worker, the walk leaves it behind.
        fds, stopped = open_fds(), []
        original = transport.cls.stop
        monkeypatch.setattr(transport.cls, "stop", lambda share: stopped.append(share))
        walk = _walk(transport, 8)
        next(walk)
        walk.close()
        try:
            assert left_behind(fds) != NOTHING
        finally:
            original(stopped[0])
        assert left_behind(fds) == NOTHING

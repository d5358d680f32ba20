"""The in-order claim core (``sketch._in_order``) as one table over its two
transports: the thread transport of a two-thread walk
(``sketch._TileShare``) and the process transport of the forked CSV reader
(``cli._ForkShare``). Each row runs the core over small items that say
which side produced them, with the real transport between the two sides;
the walk and reader tests cover what each path adds (tiles, chunks and
their faults' messages).

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

HELPER = "dpsketch-tiles"


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


def _walk(transport, n, consumer=None, worker=None):
    """The in-order walk of items 0 to n - 1 on ``transport``: a generator
    of the items. ``consumer(i)`` and ``worker(i)``, where given, run on
    their side before it produces item i."""
    def producer(by, hook):
        def produce(i):
            if hook is not None:
                hook(i)
            return transport.made(i, by)

        return produce

    return sketch._in_order(n, transport.share(n), producer("consumer", consumer),
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


def _fds():
    return set(os.listdir("/proc/self/fd"))


def _helpers():
    return [t.name for t in threading.enumerate() if t.name == HELPER]


def _left_behind(fds):
    """What a walk left: helper threads, children not yet reaped, and fds
    opened since ``fds`` was listed."""
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        child = None
    return _helpers(), child, sorted(_fds() - fds)


NOTHING = ([], None, [])


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestInOrder:
    def test_each_item_once_in_order(self, transport):
        # The consumer pauses on each item, so the worker produces some.
        got = _read_out(transport, _walk(transport, 12), pause=0.005)
        assert [i for i, _by in got] == list(range(12))
        assert got[0] == (0, "consumer") and {by for _i, by in got} == {"consumer", "worker"}

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

        def logged(i):
            with open(log, "a") as fh:
                fh.write(f"{i}\n")

        def most_ahead():
            log.write_text("")
            most = 0
            for item in _walk(transport, 12, worker=logged):
                i, _by = transport.read(item)
                time.sleep(0.02)
                most = max(most, sum(int(k) > i for k in log.read_text().split()))
            return most

        assert most_ahead() == 2
        if transport is Processes:
            monkeypatch.setattr(cli, "_RUN_AHEAD", 12)
            assert most_ahead() > 2

    def test_a_fault_in_the_worker_keeps_its_meaning(self, transport):
        # The worker fails on its second item. On threads the walk yields
        # every item before that one and raises there. The forked child
        # dies instead, and the consumer produces that item and every later
        # one: the child supplies its first item only.
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
            assert str(err.value) == f"item {produced[1]}"
            assert [i for i, _by in got] == list(range(produced[1]))
        else:
            got = _read_out(transport, walk, pause=0.005)
            assert [i for i, _by in got] == list(range(12))
            assert [by for _i, by in got].count("worker") == 1

    def test_a_worker_that_cannot_start_leaves_every_item_to_the_consumer(
            self, transport, monkeypatch):
        def refuse(*args):
            raise (RuntimeError if transport is Threads else BlockingIOError)("cannot start")

        if transport is Threads:
            monkeypatch.setattr(threading.Thread, "start", refuse)
        else:
            monkeypatch.setattr(os, "fork", refuse)
        fds = _fds()
        assert _read_out(transport, _walk(transport, 7)) == [(i, "consumer") for i in range(7)]
        assert _left_behind(fds) == NOTHING

    @pytest.mark.parametrize("end", ["to-its-end", "closed-at-its-first-item", "worker-raises",
                                     "consumer-raises"])
    def test_nothing_outlives_the_walk(self, transport, end):
        # The raising side fails on every item it produces. A worker that
        # raises ends a thread walk at its first item (item 1); the forked
        # child dies, and the consumer produces every item. Either side
        # counts the helper threads as it produces: a thread walk has one.
        fds, helpers = _fds(), []

        def hook(side):
            def count(i):
                helpers.append(len(_helpers()))
                if end == f"{side}-raises":
                    raise Failed(f"item {i} on the {side}")

            return count

        walk = _walk(transport, 8, hook("consumer"), hook("worker"))
        if end == "closed-at-its-first-item":
            next(walk)
            walk.close()
        elif end == "consumer-raises" or (end == "worker-raises" and transport is Threads):
            with pytest.raises(Failed):
                _read_out(transport, walk)
        else:
            assert [i for i, _by in _read_out(transport, walk)] == list(range(8))
        assert max(helpers) == (1 if transport is Threads else 0)
        assert _left_behind(fds) == NOTHING

    def test_a_stop_that_leaves_the_worker_fails(self, transport, monkeypatch):
        # Negative control of the row above: with a stop that neither joins
        # nor reaps its worker, the walk leaves it behind.
        fds, stopped = _fds(), []
        original = transport.cls.stop
        monkeypatch.setattr(transport.cls, "stop", lambda share: stopped.append(share))
        walk = _walk(transport, 8)
        next(walk)
        walk.close()
        try:
            assert _left_behind(fds) != NOTHING
        finally:
            original(stopped[0])
        assert _left_behind(fds) == NOTHING

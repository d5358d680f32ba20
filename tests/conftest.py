import os
import signal
import threading

import numpy as np
import pytest

from dpsketch import sketch

# The name of a two-thread walk's helper thread.
HELPER = "dpsketch-tiles"


def helpers():
    """The names of the two-thread walks' helper threads alive now."""
    return [t.name for t in threading.enumerate() if t.name == HELPER]


def open_fds():
    """This process's open file descriptors."""
    return set(os.listdir("/proc/self/fd"))


def left_behind(fds):
    """What walks left: helper threads, a child not yet reaped (the
    ``waitpid`` answer, which reaps one that has ended) and the fds opened
    since ``fds`` was listed (``open_fds``). ``NOTHING`` if none."""
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        child = None
    return helpers(), child, sorted(open_fds() - fds)


NOTHING = ([], None, [])


def write_csv(path, m):
    """Write the rows of m to a CSV file at path, each entry as its repr,
    which reads back bit for bit (a NaN as ``nan``). Gives the path."""
    with open(path, "w") as fh:
        for row in np.atleast_2d(m):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    return str(path)


def lra_argv(path, report, oracle=False):
    """The argv of an lra release of rank 1 (3 columns with the
    oversampling) of a CSV file, or of a DPMT file, at seed 0."""
    fmt = ["--format", "dpbin"] if path.endswith(".dpmt") else []
    argv = ["lra", "--input", path, *fmt, "--rank", "1", "--oversample", "2", "--eps", "1",
            "--delta", "0.01", "--seed", "0", "--report", str(report)]
    return argv + (["--oracle"] if oracle else [])


@pytest.fixture
def sigchld_ignored():
    """SIGCHLD ignored until the test ends, so that the kernel reaps each
    child as it ends and no wait finds it."""
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    yield
    signal.signal(signal.SIGCHLD, handler)


class TileCalls(list):
    """(r, j0, j1) of every ``sketch._tile`` call: one generated tile each."""

    @property
    def normals(self) -> int:
        """Normals generated by the recorded calls."""
        return sum(r * (j1 - j0) for r, j0, j1 in self)


@pytest.fixture
def tile_calls(monkeypatch):
    """Record every projection tile generated from here on; ``clear()``
    the record to count from a later point."""
    calls = TileCalls()
    original = sketch._tile

    def spy(sk, bg, j0, j1, buf):
        calls.append((sk.r, j0, j1))
        return original(sk, bg, j0, j1, buf)

    monkeypatch.setattr(sketch, "_tile", spy)
    return calls


def _skip_nothing_on(monkeypatch, helper):
    # From here on, every Philox stream ignores an ``advance`` asked of it
    # on a two-thread walk's helper thread (helper=True) or on any other.
    original = sketch._philox

    class Stream:
        def __init__(self, bg):
            self.bg = bg

        def random_raw(self, count):
            return self.bg.random_raw(count)

        def advance(self, delta):
            if (threading.current_thread().name == HELPER) != helper:
                self.bg.advance(delta)

    monkeypatch.setattr(sketch, "_philox", lambda seed, offset: Stream(original(seed, offset)))


@pytest.fixture
def helper_skips_nothing(monkeypatch):
    """From here on, a two-thread walk's helper never moves its stream to
    the tiles it claims: every Philox stream ignores an ``advance`` asked
    of it on the helper thread. The helper's stream opens at the walk's
    first column and its first tile is the walk's second, so every tile it
    generates takes the words of earlier columns. Serial walks never
    advance, and do not change."""
    _skip_nothing_on(monkeypatch, helper=True)


@pytest.fixture
def caller_skips_nothing(monkeypatch):
    """From here on, a two-thread walk's caller never moves its stream past
    the tiles the helper claimed: every Philox stream ignores an
    ``advance`` asked of it off the helper thread, so each tile the caller
    generates after one of the helper's takes the words of earlier
    columns. Serial walks never advance, and do not change."""
    _skip_nothing_on(monkeypatch, helper=False)

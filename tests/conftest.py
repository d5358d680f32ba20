import threading

import pytest

from dpsketch import sketch


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


@pytest.fixture
def helper_skips_nothing(monkeypatch):
    """From here on, a two-thread walk's helper does not skip the caller's
    tiles: every Philox stream ignores an ``advance`` asked of it on the
    helper thread, so the helper's tiles past its first take the words of
    the tile before them. Serial walks never skip, and do not change."""
    original = sketch._philox

    class Stream:
        def __init__(self, bg):
            self.bg = bg

        def random_raw(self, count):
            return self.bg.random_raw(count)

        def advance(self, delta):
            if threading.current_thread().name != "dpsketch-tiles":
                self.bg.advance(delta)

    monkeypatch.setattr(sketch, "_philox", lambda seed, offset: Stream(original(seed, offset)))

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

"""The lifted-sketch core keeps data terms only.

Multiply and regression sketches hold omega_data @ A and nothing else; the
lift s * omega[:, :d] enters where a release reads them. So construction
and merge generate nothing, a merge is the plain sum of the shards'
sketches, and a release leaves the sketches as it found them.
"""
import dataclasses

import numpy as np
import pytest

from dpsketch import guard
from dpsketch.lra import LraConfig, new_lra
from dpsketch.matprod import LiftedSketch, new_matprod
from dpsketch.regress import new_regress

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)
N, D1, D2, Q = 24, 5, 3, 4


def make_state(mechanism, seed):
    if mechanism == "matprod":
        return new_matprod(N, D1, D2, BUDGET, ACC, seed)
    return new_regress(N, D1, BUDGET, ACC, seed)


def release(state, queries):
    """What the mechanism publishes: the product estimate, or the solutions."""
    if hasattr(state, "product_query"):
        return state.product_query()
    return state.query_many(queries)


def rel_diff(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class Case:
    """One mechanism's inputs, its whole-stream state and random shards."""

    def __init__(self, mechanism, seed):
        self.mechanism, self.seed = mechanism, seed
        self.rng = np.random.default_rng(seed)
        self.a = self.rng.standard_normal((N, D1))
        self.b = self.rng.standard_normal((N, D2))
        self.queries = self.rng.standard_normal((N, Q))
        self.whole = self.shard(np.arange(N), "rows")

    def shard(self, part, split):
        """A state that ingested the rows (or columns, of B only those below
        D2) in ``part`` of A and of B, one at a time."""
        state = make_state(self.mechanism, self.seed)
        for i in part:
            if split == "columns":
                self._ingest_column(state, i)
            elif self.mechanism == "matprod":
                state.ingest_rows(i, self.a[[i]], self.b[[i]])
            else:
                state.ingest_rows(i, self.a[[i]])
        return state

    def _ingest_column(self, state, j):
        if self.mechanism == "regress":
            state.ingest_columns(j, self.a[:, [j]])
            return
        state.ingest_a_columns(j, self.a[:, [j]])
        if j < D2:
            state.ingest_b_columns(j, self.b[:, [j]])

    def split(self, split):
        """Two shards over a random split of the rows, or of the columns."""
        count = N if split == "rows" else D1
        first = self.rng.random(count) < 0.5
        part = np.arange(count)
        return self.shard(part[first], split), self.shard(part[~first], split)


def old_merge(x, y):
    """The merge of sketches that each carried the lift: their sum less one
    regenerated lift."""
    lift = x.s * x.sketcher.column_block(0, x.d)
    theirs = y._sketches()
    return dataclasses.replace(x, **{
        name: sk + theirs[name] - lift[:, : sk.shape[1]] for name, sk in x._sketches().items()
    })


@pytest.mark.parametrize("mechanism", ["lra", "matprod", "regress"])
def test_construction_generates_nothing(tile_calls, mechanism):
    if mechanism == "lra":
        state = new_lra(LraConfig(n=N, d=16, k=3, p=4, budget=BUDGET, seed=0))
    else:
        state = make_state(mechanism, 0)
    assert tile_calls.normals == 0
    assert not any(v.any() for v in vars(state).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("mechanism", ["matprod", "regress"])
class TestMerge:
    """Two shards of one stream merge into the whole stream's state."""

    @pytest.mark.parametrize("seed", [30, 31, 32])
    @pytest.mark.parametrize("split", ["rows", "columns"])
    def test_sharded_equals_whole(self, mechanism, split, seed):
        case = Case(mechanism, seed)
        x, y = case.split(split)
        want = release(case.whole, case.queries)
        for first, second in ((x, y), (y, x)):
            merged = first.merge(second)
            assert merged.sketcher is first.sketcher
            assert rel_diff(release(merged, case.queries), want) <= 1e-10
        # Negative control: the old recipe takes one lift away from shards
        # that never held it, so its release misses the whole stream's.
        assert rel_diff(release(old_merge(x, y), case.queries), want) > 1e-10

    def test_merge_is_a_plain_sum_and_generates_nothing(self, tile_calls, mechanism):
        case = Case(mechanism, 33)
        x, y = case.split("rows")
        tile_calls.clear()
        merged = x.merge(y)
        assert tile_calls.normals == 0
        theirs = y._sketches()
        for name, sk in x._sketches().items():
            assert np.array_equal(getattr(merged, name), sk + theirs[name])
        # Negative control: the old recipe regenerates a lift and differs.
        tile_calls.clear()
        old = old_merge(x, y)
        assert tile_calls.normals > 0
        assert not all(
            np.array_equal(getattr(old, name), sk + theirs[name])
            for name, sk in x._sketches().items()
        )


def _read_twice_is_pure(state, queries) -> bool:
    """Whether two releases of ``state`` agree bit for bit and leave its
    sketches as they were."""
    before = {name: sk.copy() for name, sk in state._sketches().items()}
    first, second = release(state, queries), release(state, queries)
    after = state._sketches()
    return np.array_equal(first, second) and all(
        np.array_equal(after[name], sk) for name, sk in before.items()
    )


@pytest.mark.parametrize("mechanism", ["matprod", "regress"])
def test_release_leaves_the_sketches_unchanged(monkeypatch, mechanism):
    case = Case(mechanism, 34)
    assert _read_twice_is_pure(case.whole, case.queries)

    # Negative control: a read that adds the lift into the sketches in
    # place changes them, and the second release reads the lift twice.
    def in_place(self):
        block = self.s * self.sketcher.column_block(0, self.d)
        sketches = list(self._sketches().values())
        for sk in sketches:
            sk += block[:, : sk.shape[1]]
        return sketches

    monkeypatch.setattr(LiftedSketch, "_lifted_sketches", in_place)
    assert not _read_twice_is_pure(Case(mechanism, 34).whole, case.queries)

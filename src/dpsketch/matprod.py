"""Differentially private matrix multiplication from column streams.

Each streamed column is lifted with a scaled identity coordinate so the
streamed matrix provably clears the projection guard, then pushed through
the seeded Gaussian sketcher. The product query de-biases the deterministic
lift cross-term and rescales by the sketch dimension, so the returned
matrix estimates A.T @ B itself.

Lifted column layout (length 2(n+d), d = max(d1, d2)):

    [0, d)        s * e_col      identity lift
    [d, 2d+n)     zeros          spacer
    [2d+n, 2d+2n) data column    the streamed content

The identity-lift contribution of every column is data-independent, so it
is seeded into the sketches at construction; ingestion accumulates only
data contributions, which keeps updates exactly linear (turnstile). A merge
of two shards therefore sums their sketches and subtracts one copy of the
lift, regenerated from the seed.

Both operands are sketched with the same projection and read the same
data-block columns, so ``MatProdState.ingest_rows`` takes a row block of A
and of B together and regenerates each projection tile once for both.
``LiftedSketch`` owns this layout, the guard check and its report, and the
ingest; the regression mechanism builds on the same core.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import guard, numerics, sketch
from .errors import ContractViolationError
from .sketch import GaussianSketcher, Sketch


def lift_layout(n: int, d: int) -> tuple[int, int, int]:
    """(total length, data block offset, data block end) of the lift."""
    return 2 * (n + d), 2 * d + n, 2 * d + 2 * n


def lifted_matrix(a: np.ndarray, s: float, d: int) -> np.ndarray:
    """Densify the lifted version of ``a`` (testing/oracle use only)."""
    n, cols = a.shape
    m, lo, _hi = lift_layout(n, d)
    out = np.zeros((m, cols))
    out[:cols, :cols][np.diag_indices(cols)] = s
    out[lo:, :] = a
    return out


@dataclass
class LiftedSketch:
    """Identity-lifted n x d streams sketched by one seeded projection.

    Each subclass names its sketches; ``_new`` seeds them with the lift,
    ``_ingest_columns`` adds a block of columns into one of them, and
    ``_ingest_rows`` adds a block of rows into one or more of them in one
    pass over the projection tiles.
    """

    n: int
    d: int
    r: int
    s: float
    budget: guard.PrivacyBudget
    acc: guard.AccuracySpec
    sketcher: GaussianSketcher
    guard_report: guard.GuardReport

    @classmethod
    def _new(cls, n, d, r, budget, acc, seed, s_override, enforce_guard, widths, **fields):
        """Check the guard, build the sketcher and seed each sketch in ``widths``.

        ``widths`` maps a sketch field to its column count; each sketch
        starts as the lift s * omega[:, :width]. ``fields`` are passed on.
        """
        s = s_override if s_override is not None else guard.lift_scale_s(budget, r)
        report = guard.check_lift("s", s, guard.sigma_min_psg1(budget, r), enforce_guard)
        m, _lo, _hi = lift_layout(n, d)
        sketcher = GaussianSketcher(seed, r=r, m=m)
        for name, width in widths.items():
            fields[name] = Sketch.empty(sketcher, "psg1", width)
        state = cls(
            n=n, d=d, r=r, s=float(s), budget=budget, acc=acc, sketcher=sketcher,
            guard_report=report, **fields,
        )
        sketches = [fields[name] for name in widths]
        for sk, lift in zip(sketches, state._lifts(sketches)):
            sk.data[:] = lift
        return state

    def _lifts(self, sketches) -> list[np.ndarray]:
        """The lift s * omega[:, :col_count] of each sketch, from one regenerated block."""
        block = self.s * self.sketcher.column_block(0, max(sk.col_count for sk in sketches))
        return [block[:, : sk.col_count] for sk in sketches]

    def space_entries(self) -> int:
        """Retained entries: the sketches (omega is regenerated on demand)."""
        return sum(v.data.size for v in vars(self).values() if isinstance(v, Sketch))

    def _project_data(self, i0: int, *blocks: np.ndarray) -> list[np.ndarray]:
        """omega_data[:, i0:i0+k] @ x for each k-row block x, in one pass over
        the tiles, omega_data being the data block."""
        _m, lo, _hi = lift_layout(self.n, self.d)
        return self.sketcher.project_blocks(lo + i0, blocks)

    def _ingest_columns(self, sk: Sketch, j0: int, cols) -> None:
        """Add omega_data @ cols into sketch columns [j0, j0 + cols.shape[1]).

        The data block is regenerated one tile at a time, once for the
        whole block of columns.
        """
        x = numerics.as_matrix(cols, "columns")
        if x.shape[0] != self.n:
            raise ContractViolationError(f"column length {x.shape[0]}, expected {self.n}")
        j1 = j0 + x.shape[1]
        if not (0 <= j0 <= j1 <= sk.col_count):
            raise ContractViolationError(f"columns [{j0}, {j1}) outside [0, {sk.col_count})")
        if not x.any():
            return
        (y,) = self._project_data(0, x)
        sk.data[:, j0:j1] += y

    def _ingest_rows(self, i0: int, *pairs) -> None:
        """Add the turnstile update of data rows [i0, i0 + k) to each sketch.

        ``pairs`` are (sketch, rows) with k rows each. Row i touches only
        projection column lo + i, so each tile of those columns is
        regenerated once and applied to every pair. All pairs are checked,
        their row counts by ``project_blocks``, before any sketch changes.
        """
        blocks = [numerics.as_matrix(rows, "rows") for _sk, rows in pairs]
        for (sk, _rows), x in zip(pairs, blocks):
            if x.shape[1] != sk.col_count:
                raise ContractViolationError(f"row length {x.shape[1]}, expected {sk.col_count}")
        i1 = i0 + blocks[0].shape[0]
        if not (0 <= i0 <= i1 <= self.n):
            raise ContractViolationError(f"rows [{i0}, {i1}) outside [0, {self.n})")
        for (sk, _rows), y in zip(pairs, self._project_data(i0, *blocks)):
            sk.data += y


@dataclass
class MatProdState(LiftedSketch):
    d1: int
    d2: int
    ya: Sketch
    yb: Sketch

    def ingest_a_columns(self, j0: int, cols) -> None:
        """Add columns j0, j0+1, ... of A, given as the columns of ``cols``."""
        self._ingest_columns(self.ya, j0, cols)

    def ingest_b_columns(self, j0: int, cols) -> None:
        self._ingest_columns(self.yb, j0, cols)

    def ingest_rows(self, i0: int, a_rows, b_rows) -> None:
        """Add rows i0, i0+1, ... of A and of B, given as the rows of
        ``a_rows`` and ``b_rows``; both share one pass over the tiles."""
        self._ingest_rows(i0, (self.ya, a_rows), (self.yb, b_rows))

    def ingest_a_rows(self, i0: int, rows) -> None:
        """Add rows i0, i0+1, ... of A, given as the rows of ``rows``."""
        self._ingest_rows(i0, (self.ya, rows))

    def ingest_b_rows(self, i0: int, rows) -> None:
        self._ingest_rows(i0, (self.yb, rows))

    def product_query(self) -> np.ndarray:
        """Estimate A.T @ B from the sketches.

        The raw cross product estimates r * (s^2 I~ + A.T B); dividing by r
        and subtracting the deterministic lift expectation s^2 I~ (the
        partial identity) leaves an unbiased estimate of A.T @ B.
        """
        est = (self.ya.data.T @ self.yb.data) / self.r
        dmin = min(self.d1, self.d2)
        est[np.diag_indices(dmin)] -= self.s**2
        return est

    def merge(self, other: "MatProdState") -> "MatProdState":
        """Combine two shards of the same stream.

        Data contributions add; the deterministic lift contribution is
        common to both shards and must enter the result exactly once.
        ``sketch.merge`` checks that the shards share kind, sketcher and shape.
        """
        if self.s != other.s:
            raise ContractViolationError("cannot merge states with different lifts")
        ya, yb = sketch.merge(self.ya, other.ya), sketch.merge(self.yb, other.yb)
        # Both shards carry the lift; remove one copy.
        for sk, lift in zip((ya, yb), self._lifts((ya, yb))):
            sk.data -= lift
        return dataclasses.replace(self, ya=ya, yb=yb)


def new_matprod(
    n: int,
    d1: int,
    d2: int,
    budget: guard.PrivacyBudget,
    acc: guard.AccuracySpec,
    seed: int,
    s_override: float | None = None,
    enforce_guard: bool = True,
) -> MatProdState:
    if n < 1 or d1 < 1 or d2 < 1:
        raise ContractViolationError("matrix dimensions must be >= 1")
    r = guard.matmult_sketch_dim(acc)
    return MatProdState._new(
        n, max(d1, d2), r, budget, acc, seed, s_override, enforce_guard,
        {"ya": d1, "yb": d2}, d1=d1, d2=d2,
    )

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

The sketches hold data terms only, which keeps updates exactly linear
(turnstile) and makes a merge of two shards the plain sum of their
sketches; like the seed, they stay with the curator. The data-independent
lift enters where a release reads them, from one regenerated block.

Both operands are sketched with the same projection and read the same
data-block columns, so ``MatProdState.ingest_rows`` takes a row block of A
and of B together and regenerates each projection tile once for both.
``MatProdState.ingest_stream`` takes all n rows in chunks of any sizes and
sketches them in one walk over the tiles, which reads each chunk as its
tiles reach it, so the sketches do not depend on the chunking, bit for
bit. ``LiftedSketch`` owns this layout, the guard check and its report,
the row-block ingest that every update goes through, the stream walk, the
merge and the read that adds the lift; the regression mechanism builds on
the same core.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import guard, numerics
from .errors import ContractViolationError
from .sketch import GaussianSketcher, _project_stream


def lift_layout(n: int, d: int) -> tuple[int, int]:
    """(total length, data block offset) of the lift; the data block runs to the end."""
    return 2 * (n + d), 2 * d + n


def lifted_matrix(a: np.ndarray, s: float, d: int) -> np.ndarray:
    """Densify the lifted version of ``a`` (testing/oracle use only)."""
    n, cols = a.shape
    m, lo = lift_layout(n, d)
    out = np.zeros((m, cols))
    out[:cols, :cols][np.diag_indices(cols)] = s
    out[lo:, :] = a
    return out


@dataclass
class LiftedSketch:
    """Identity-lifted n x d streams sketched by one seeded projection.

    Each subclass names its sketches, the state's r x c array fields, which
    hold omega_data @ A alone; ``_ingest_rows`` adds a block of rows into one
    or more of them in one pass over the projection tiles (a block of columns
    is all n rows of a column slice), ``merge`` sums two shards, and
    ``_lifted_sketches`` adds the lift where a release reads them.
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
        """Check the guard, build the sketcher and start each sketch in ``widths``.

        ``widths`` maps a sketch field to its column count; each sketch
        starts as zeros, so nothing is generated. ``fields`` are passed on.
        """
        s = s_override if s_override is not None else guard.lift_scale_s(budget, r)
        report = guard.check_lift("s", s, guard.sigma_min_psg1(budget, r), enforce_guard)
        m, _lo = lift_layout(n, d)
        sketcher = GaussianSketcher(seed, r=r, m=m)
        for name, width in widths.items():
            fields[name] = np.zeros((r, width))
        return cls(
            n=n, d=d, r=r, s=float(s), budget=budget, acc=acc, sketcher=sketcher,
            guard_report=report, **fields,
        )

    def _lifted_sketches(self) -> list[np.ndarray]:
        """Each sketch plus its lift s * omega[:, :c], from one regenerated block, as new arrays."""
        sketches = list(self._sketches().values())
        block = self.s * self.sketcher.column_block(0, max(sk.shape[1] for sk in sketches))
        return [sk + block[:, : sk.shape[1]] for sk in sketches]

    def _sketches(self) -> dict[str, np.ndarray]:
        return {name: v for name, v in vars(self).items() if isinstance(v, np.ndarray)}

    def lifted(self, a: np.ndarray) -> np.ndarray:
        """Densify the lifted version of ``a`` that this state sketches (oracle use only)."""
        return lifted_matrix(a, self.s, self.d)

    def space_entries(self) -> int:
        """Retained entries: the sketches (omega is regenerated on demand)."""
        return sum(sk.size for sk in self._sketches().values())

    def merge(self, other):
        """Combine two shards of the same stream: their sketches add.

        The sketches hold data terms only and the lift enters where a
        release reads them, so nothing is regenerated; like the seed, they
        stay with the curator and its shards. Shards with different lifts,
        budgets, accuracy, sketchers or sketch shapes are refused, so the
        result does not depend on the order of the two and no sum broadcasts.
        """
        if type(other) is not type(self):
            raise ContractViolationError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.s != other.s:
            raise ContractViolationError("cannot merge states with different lifts")
        if (self.budget, self.acc) != (other.budget, other.acc):
            raise ContractViolationError("cannot merge states with different budgets or accuracy")
        if self.sketcher.fingerprint != other.sketcher.fingerprint:
            raise ContractViolationError("cannot merge states with different sketchers")
        mine, theirs = self._sketches(), other._sketches()
        if any(sk.shape != theirs[name].shape for name, sk in mine.items()):
            raise ContractViolationError("cannot merge sketches with different shapes")
        return dataclasses.replace(self, **{name: sk + theirs[name] for name, sk in mine.items()})

    def _ingest_columns(self, sk: np.ndarray, j0: int, cols) -> None:
        """Add omega_data @ cols into sketch columns [j0, j0 + cols.shape[1]):
        all n rows, ingested by ``_ingest_rows`` into that column slice."""
        x = numerics.as_matrix(cols, "columns")
        if x.shape[0] != self.n:
            raise ContractViolationError(f"column length {x.shape[0]}, expected {self.n}")
        j1 = j0 + x.shape[1]
        if not (0 <= j0 <= j1 <= sk.shape[1]):
            raise ContractViolationError(f"columns [{j0}, {j1}) outside [0, {sk.shape[1]})")
        self._ingest_rows(0, (sk[:, j0:j1], x))

    def _ingest_rows(self, i0: int, *pairs) -> int:
        """Add the turnstile update of data rows [i0, i0 + k) to each sketch;
        returns i0 + k.

        ``pairs`` are (sketch, rows) with k rows each. Row i touches only
        projection column lo + i, so one ``project_blocks`` pass applies
        each tile of those columns to every pair. All pairs are checked,
        their row counts by ``project_blocks``, before any sketch changes.
        """
        if not pairs:
            raise ContractViolationError("no row blocks to ingest")
        sketches, rows = zip(*pairs)
        blocks, i1 = self._row_blocks(i0, rows, [sk.shape[1] for sk in sketches])
        _m, lo = lift_layout(self.n, self.d)
        for sk, y in zip(sketches, self.sketcher.project_blocks(lo + i0, blocks)):
            sk += y
        return i1

    def _row_blocks(self, i0: int, rows, widths) -> tuple[list[np.ndarray], int]:
        """Rows [i0, i1) of streams of ``widths`` columns, as float64 blocks
        checked against those widths and the n rows, and i1."""
        blocks = [numerics.as_matrix(x, "rows") for x in rows]
        for x, width in zip(blocks, widths):
            if x.shape[1] != width:
                raise ContractViolationError(f"row length {x.shape[1]}, expected {width}")
        i1 = i0 + blocks[0].shape[0]
        if not (0 <= i0 <= i1 <= self.n):
            raise ContractViolationError(f"rows [{i0}, {i1}) outside [0, {self.n})")
        return blocks, i1

    def _project_chunks(self, chunks, widths) -> list[np.ndarray]:
        """omega_data @ X for each stream X of ``widths`` columns, in one walk.

        ``chunks`` yields (i0, *rows): rows i0, i0+1, ... of every stream,
        from row 0 to row n in order, in chunks of any sizes. One walk over
        the data block's tiles (``sketch._project_stream``) reads each chunk
        when its tiles reach it, and checks it then, as ``_ingest_rows``
        checks a block, and that it starts where the last one ended; the
        chunks must end at row n. No sketch changes here.
        """
        def checked():
            end = 0
            for i0, *rows in chunks:
                if i0 != end:
                    raise ContractViolationError(f"chunk at row {i0}, expected row {end}")
                if len(rows) != len(widths):
                    raise ContractViolationError(
                        f"chunk of {len(rows)} row blocks, expected {len(widths)}"
                    )
                blocks, end = self._row_blocks(i0, rows, widths)
                yield blocks
            if end != self.n:
                raise ContractViolationError(f"chunks end at row {end}, expected {self.n}")

        _m, lo = lift_layout(self.n, self.d)
        return _project_stream(self.sketcher, lo, lo + self.n, checked())


@dataclass
class MatProdState(LiftedSketch):
    d1: int
    d2: int
    ya: np.ndarray
    yb: np.ndarray

    def ingest_a_columns(self, j0: int, cols) -> None:
        """Add columns j0, j0+1, ... of A, given as the columns of ``cols``."""
        self._ingest_columns(self.ya, j0, cols)

    def ingest_b_columns(self, j0: int, cols) -> None:
        self._ingest_columns(self.yb, j0, cols)

    def ingest_rows(self, i0: int, a_rows, b_rows) -> None:
        """Add rows i0, i0+1, ... of A and of B, given as the rows of
        ``a_rows`` and ``b_rows``; both share one pass over the tiles."""
        self._ingest_rows(i0, (self.ya, a_rows), (self.yb, b_rows))

    def ingest_stream(self, chunks) -> None:
        """Add all n rows of A and of B from ``chunks`` of (i0, a_rows, b_rows),
        from row 0 to row n in order, in chunks of any sizes.

        One walk over the projection tiles reads the chunks as its tiles
        reach them, so the sketches are those of one ``ingest_rows`` of the
        whole of A and B, bit for bit, whatever the chunking. The sketches
        change once, at the end of the walk: a chunk that fails a check
        (as ``ingest_rows`` checks a block, and that it starts where the
        last one ended) leaves them as they were, and so does a stream that
        ends before row n.
        """
        ya, yb = self._project_chunks(chunks, [self.d1, self.d2])
        self.ya += ya
        self.yb += yb

    def ingest_a_rows(self, i0: int, rows) -> None:
        """Add rows i0, i0+1, ... of A, given as the rows of ``rows``."""
        self._ingest_rows(i0, (self.ya, rows))

    def ingest_b_rows(self, i0: int, rows) -> None:
        self._ingest_rows(i0, (self.yb, rows))

    def product_query(self) -> np.ndarray:
        """Estimate A.T @ B from the sketches of the lifted A and B.

        The raw cross product estimates r * (s^2 I~ + A.T B); dividing by r
        and subtracting the deterministic lift expectation s^2 I~ (the
        partial identity) leaves an unbiased estimate of A.T @ B.
        """
        ya, yb = self._lifted_sketches()
        est = (ya.T @ yb) / self.r
        dmin = min(self.d1, self.d2)
        est[np.diag_indices(dmin)] -= self.s**2
        return est


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
    """Build a state for the private product A.T @ B of n x d1 and n x d2 inputs.

    The seed is the mechanism's secret: the projection is a pure function of
    it, so anyone who knows it can recompute the release from each candidate
    input. The curator and its shards, which share one sketcher, hold it;
    the public never gets it.
    """
    if n < 1 or d1 < 1 or d2 < 1:
        raise ContractViolationError("matrix dimensions must be >= 1")
    r = guard.matmult_sketch_dim(acc)
    return MatProdState._new(
        n, max(d1, d2), r, budget, acc, seed, s_override, enforce_guard,
        {"ya": d1, "yb": d2}, d1=d1, d2=d2,
    )

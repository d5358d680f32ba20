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
data contributions, which keeps updates exactly linear (turnstile).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import guard, numerics
from .errors import ContractViolationError, SpectralGuardError
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
class MatProdState:
    n: int
    d1: int
    d2: int
    d: int
    r: int
    s: float
    budget: guard.PrivacyBudget
    acc: guard.AccuracySpec
    sketcher: GaussianSketcher
    ya: Sketch
    yb: Sketch

    def space_entries(self) -> int:
        """Retained entries: the two sketches (omega is regenerated on demand)."""
        return int(self.ya.data.size + self.yb.data.size)

    def ingest_a_columns(self, j0: int, cols) -> None:
        """Add columns j0, j0+1, ... of A, given as the columns of ``cols``."""
        ingest_data_columns(self.sketcher, self.ya, self.n, self.d, j0, cols)

    def ingest_b_columns(self, j0: int, cols) -> None:
        ingest_data_columns(self.sketcher, self.yb, self.n, self.d, j0, cols)

    def ingest_a_rows(self, i0: int, rows) -> None:
        """Add rows i0, i0+1, ... of A, given as the rows of ``rows``."""
        ingest_data_rows(self.sketcher, self.ya, self.n, self.d, i0, rows)

    def ingest_b_rows(self, i0: int, rows) -> None:
        ingest_data_rows(self.sketcher, self.yb, self.n, self.d, i0, rows)

    def ingest_a_column(self, a: int, col) -> None:
        self.ingest_a_columns(a, numerics.as_vector(col, "column")[:, None])

    def ingest_b_column(self, b: int, col) -> None:
        self.ingest_b_columns(b, numerics.as_vector(col, "column")[:, None])

    def ingest_a_row(self, i: int, row) -> None:
        self.ingest_a_rows(i, numerics.as_vector(row, "row")[None, :])

    def ingest_b_row(self, i: int, row) -> None:
        self.ingest_b_rows(i, numerics.as_vector(row, "row")[None, :])

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
        """
        if self.sketcher.fingerprint != other.sketcher.fingerprint:
            raise ContractViolationError("cannot merge states with different sketchers")
        if (self.d1, self.d2, self.n) != (other.d1, other.d2, other.n):
            raise ContractViolationError("cannot merge states with different shapes")
        merged = new_matprod(
            self.n, self.d1, self.d2, self.budget, self.acc, self.sketcher.seed
        )
        lift_a = _lift_part(self.sketcher, self.s, self.d1)
        lift_b = _lift_part(self.sketcher, self.s, self.d2)
        merged.ya.data[:] = self.ya.data + other.ya.data - lift_a
        merged.yb.data[:] = self.yb.data + other.yb.data - lift_b
        return merged


def ingest_data_columns(
    sketcher: GaussianSketcher, sk: Sketch, n: int, d: int, j0: int, cols
) -> None:
    """Add omega_data @ cols into sketch columns [j0, j0 + cols.shape[1]).

    omega_data is the data block of the lift layout; it is regenerated one
    tile at a time, once for the whole block of columns.
    """
    x = numerics.as_matrix(cols, "columns")
    if x.shape[0] != n:
        raise ContractViolationError(f"column length {x.shape[0]}, expected {n}")
    j1 = j0 + x.shape[1]
    if not (0 <= j0 <= j1 <= sk.col_count):
        raise ContractViolationError(f"columns [{j0}, {j1}) outside [0, {sk.col_count})")
    if not x.any():
        return
    _m, lo, _hi = lift_layout(n, d)
    sk.data[:, j0:j1] += sketcher.project(lo, x)


def ingest_data_rows(
    sketcher: GaussianSketcher, sk: Sketch, n: int, d: int, i0: int, rows
) -> None:
    """Add the turnstile update of data rows [i0, i0 + rows.shape[0]).

    Row i touches only projection column lo + i, so a block of rows is one
    matmul per tile of those columns.
    """
    x = numerics.as_matrix(rows, "rows")
    if x.shape[1] != sk.col_count:
        raise ContractViolationError(f"row length {x.shape[1]}, expected {sk.col_count}")
    i1 = i0 + x.shape[0]
    if not (0 <= i0 <= i1 <= n):
        raise ContractViolationError(f"rows [{i0}, {i1}) outside [0, {n})")
    _m, lo, _hi = lift_layout(n, d)
    sk.data += sketcher.project(lo + i0, x)


def _lift_part(sketcher: GaussianSketcher, s: float, width: int) -> np.ndarray:
    return s * sketcher.column_block(0, width)


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
    d = max(d1, d2)
    r = guard.matmult_sketch_dim(acc)
    s = s_override if s_override is not None else guard.lift_scale_s(budget, r)
    if enforce_guard:
        required = guard.sigma_min_psg1(budget, r)
        if s < required:
            raise SpectralGuardError(
                f"lift s={s:.4g} fails the spectral guard threshold {required:.4g}"
            )
    m, _lo, _hi = lift_layout(n, d)
    sketcher = GaussianSketcher(seed, r=r, m=m, store_omega=False)
    ya = Sketch.empty(sketcher, "psg1", d1)
    yb = Sketch.empty(sketcher, "psg1", d2)
    ya.data[:] = _lift_part(sketcher, s, d1)
    yb.data[:] = _lift_part(sketcher, s, d2)
    return MatProdState(
        n=n, d1=d1, d2=d2, d=d, r=r, s=float(s),
        budget=budget, acc=acc, sketcher=sketcher, ya=ya, yb=yb,
    )

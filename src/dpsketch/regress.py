"""Differentially private linear regression from a sketched design matrix.

The design matrix is lifted and sketched once (same layout as the multiply
mechanism), by rows or columns, one block at a time. A block of query
vectors is sketched with the same seeded projection in one pass over its
tiles, and the sketched least-squares problems are solved together through
the minimal-residual kernel on their shared normal system.

The returned solution is the raw minimizer of the lifted problem, which is
a ridge regression with penalty s^2: users expecting ordinary
least-squares semantics will observe shrinkage. The mechanism's additive
error term absorbs that regularization bias.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import guard, numerics
from .errors import BudgetExhaustedError, ContractViolationError, SpectralGuardError
from .matprod import ingest_data_columns, ingest_data_rows, lift_layout
from .sketch import GaussianSketcher, Sketch


@dataclass
class RegressState:
    n: int
    d: int
    r: int
    s: float
    budget: guard.PrivacyBudget
    acc: guard.AccuracySpec
    sketcher: GaussianSketcher
    ya: Sketch
    query_ceiling: Optional[int] = None
    queries_answered: int = 0

    def space_entries(self) -> int:
        return int(self.ya.data.size)

    def ingest_columns(self, j0: int, cols) -> None:
        """Add columns j0, j0+1, ... of A, given as the columns of ``cols``."""
        ingest_data_columns(self.sketcher, self.ya, self.n, self.d, j0, cols)

    def ingest_rows(self, i0: int, rows) -> None:
        """Add rows i0, i0+1, ... of A, given as the rows of ``rows``."""
        ingest_data_rows(self.sketcher, self.ya, self.n, self.d, i0, rows)

    def ingest_column(self, c: int, col) -> None:
        self.ingest_columns(c, numerics.as_vector(col, "column")[:, None])

    def ingest_row(self, i: int, row) -> None:
        self.ingest_rows(i, numerics.as_vector(row, "row")[None, :])

    def query_many(self, b) -> np.ndarray:
        """Answer min_x ||A x - b_j|| for every column b_j of the n x q ``b``.

        Each query vector is lifted with zero identity coordinates (only the
        design matrix carries the lift), sketched with the same projection,
        and the sketched problem ||Ya x - Yb_j|| is minimized through the
        normal system. Dividing both sides by r would not change the
        minimizer, so no rescaling is applied. All q columns are sketched in
        one pass over the projection tiles and count as q queries; when
        fewer than q remain under the ceiling, none is answered.

        Returns the d x q matrix of solutions.
        """
        x = numerics.as_matrix(b, "b")
        if x.shape[0] != self.n:
            raise ContractViolationError(f"query length {x.shape[0]}, expected {self.n}")
        q = x.shape[1]
        if self.query_ceiling is not None and self.queries_answered + q > self.query_ceiling:
            raise BudgetExhaustedError(
                f"{q} queries exceed the ceiling of {self.query_ceiling} "
                f"({self.queries_answered} already answered)"
            )
        _m, lo, _hi = lift_layout(self.n, self.d)
        yb = self.sketcher.project(lo, x)
        gram = self.ya.data.T @ self.ya.data
        solutions = numerics.minres_solve(gram, (self.ya.data.T @ yb).T)
        self.queries_answered += q
        return solutions.T

    def query(self, b) -> np.ndarray:
        """Answer min_x ||A x - b|| for one length-n vector (see query_many)."""
        return self.query_many(numerics.as_vector(b, "b")[:, None])[:, 0]

    def composed_budget(self, delta_prime: float) -> guard.PrivacyBudget:
        """Budget consumed by the queries answered so far, by composition."""
        if self.queries_answered == 0:
            raise ContractViolationError("no queries answered yet")
        return guard.compose(
            self.budget.eps, self.budget.delta, self.queries_answered, delta_prime
        )


def new_regress(
    n: int,
    d: int,
    budget: guard.PrivacyBudget,
    acc: guard.AccuracySpec,
    seed: int,
    max_queries: Optional[int] = None,
    s_override: float | None = None,
    enforce_guard: bool = True,
) -> RegressState:
    """Build a regression state; parameters are delegated to the guard module.

    When ``max_queries`` is given it both caps query() calls and inflates
    the per-query failure allowance, replacing ln(1/beta) by
    ln(max_queries/beta) in the sketch dimension.
    """
    if n < 1 or d < 1:
        raise ContractViolationError("matrix dimensions must be >= 1")
    if max_queries is None:
        r = guard.linreg_sketch_dim(acc, d)
    else:
        if max_queries < 1:
            raise ContractViolationError("max_queries must be >= 1")
        inflated = guard.AccuracySpec(acc.alpha, acc.beta / max_queries)
        r = guard.linreg_sketch_dim(inflated, d)
    s = s_override if s_override is not None else guard.lift_scale_s(budget, r)
    if enforce_guard:
        required = guard.sigma_min_psg1(budget, r)
        if s < required:
            raise SpectralGuardError(
                f"lift s={s:.4g} fails the spectral guard threshold {required:.4g}"
            )
    m, _lo, _hi = lift_layout(n, d)
    sketcher = GaussianSketcher(seed, r=r, m=m, store_omega=False)
    ya = Sketch.empty(sketcher, "psg1", d)
    ya.data[:] = s * sketcher.column_block(0, d)
    return RegressState(
        n=n, d=d, r=r, s=float(s), budget=budget, acc=acc,
        sketcher=sketcher, ya=ya, query_ceiling=max_queries,
    )

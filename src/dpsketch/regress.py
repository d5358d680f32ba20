"""Differentially private linear regression from a sketched design matrix.

The design matrix is lifted and sketched once by the lifted-sketch core it
shares with the multiply mechanism, by rows or columns, one block at a
time. Query vectors are sketched with the same seeded projection: together
with the design, in the same pass over its tiles, when the design and the
queries are streamed side by side (``ingest_and_query``), or in one pass of
their own when the queries come after the stream (``query_many``). The
sketched least-squares problems min ||Ya x - Yb_j|| are solved together,
directly on the sketched design Ya through its SVD rather than on its
normal system, so the solve sees cond(Ya) and not its square. Shards of a
stream combine with ``merge``, which counts the lift once.

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
from .errors import BudgetExhaustedError, ContractViolationError
from .matprod import LiftedSketch
from .sketch import Sketch


@dataclass
class RegressState(LiftedSketch):
    ya: Sketch
    query_ceiling: Optional[int] = None
    queries_answered: int = 0

    def ingest_columns(self, j0: int, cols) -> None:
        """Add columns j0, j0+1, ... of A, given as the columns of ``cols``."""
        self._ingest_columns(self.ya, j0, cols)

    def ingest_rows(self, i0: int, rows) -> None:
        """Add rows i0, i0+1, ... of A, given as the rows of ``rows``."""
        self._ingest_rows(i0, (self.ya, rows))

    def ingest_and_query(self, chunks) -> np.ndarray:
        """Add A and answer min_x ||A x - b_j|| for every query b_j, in one pass.

        ``chunks`` yields (i0, a_rows, b_rows): rows i0, i0+1, ... of A and
        of the n x q query matrix B, in order, from row 0 to row n. Each A
        block is added as by ``ingest_rows``, and the matching B block is
        sketched in the same pass over the projection tiles, so each tile
        is regenerated once for both. The r x q query sketch is working
        memory, dropped on return. The q queries are checked against the
        ceiling at the first chunk, before any sketch changes, and answered
        as by ``query_many``. A chunk that fails a check is refused with
        the chunks before it already added.

        Returns the d x q matrix of solutions.
        """
        yb, end = None, 0
        for i0, a_rows, b_rows in chunks:
            if yb is None:
                q = numerics.as_matrix(b_rows, "b").shape[1]
                self._admit(q)
                yb = Sketch.empty(self.sketcher, "psg1", q)
            if i0 != end:
                raise ContractViolationError(f"chunk at row {i0}, expected row {end}")
            end = self._ingest_rows(i0, (self.ya, a_rows), (yb, b_rows))
        if end != self.n:
            raise ContractViolationError(f"chunks end at row {end}, expected {self.n}")
        return self._answer(yb.data)

    def query_many(self, b) -> np.ndarray:
        """Answer min_x ||A x - b_j|| for every column b_j of the n x q ``b``.

        Each query vector is lifted with zero identity coordinates (only the
        design matrix carries the lift), sketched with the same projection,
        and the sketched problem ||Ya x - Yb_j|| is minimized directly on
        Ya. Dividing both sides by r would not change the minimizer, so no
        rescaling is applied. All q columns are sketched in one pass over
        the projection tiles and count as q queries; when fewer than q
        remain under the ceiling, none is answered.

        Returns the d x q matrix of solutions.
        """
        x = numerics.as_matrix(b, "b")
        if x.shape[0] != self.n:
            raise ContractViolationError(f"query length {x.shape[0]}, expected {self.n}")
        self._admit(x.shape[1])
        (yb,) = self._project_data(0, x)
        return self._answer(yb)

    def _admit(self, q: int) -> None:
        """Refuse q queries that would pass the ceiling."""
        if self.query_ceiling is not None and self.queries_answered + q > self.query_ceiling:
            raise BudgetExhaustedError(
                f"{q} queries exceed the ceiling of {self.query_ceiling} "
                f"({self.queries_answered} already answered)"
            )

    def _answer(self, yb: np.ndarray) -> np.ndarray:
        """Solve min_x ||Ya x - yb_j|| for each column of the r x q ``yb``."""
        solutions = numerics.lstsq(self.ya.data, yb)
        self.queries_answered += yb.shape[1]
        return solutions

    def merge(self, other: "RegressState") -> "RegressState":
        """Combine two shards, as ``LiftedSketch.merge``; shards that have
        answered queries are refused, so the query ceiling stays honest."""
        merged = super().merge(other)  # checks first that other is a RegressState
        if self.queries_answered or other.queries_answered:
            raise ContractViolationError("cannot merge shards that have answered queries")
        return merged

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

    When ``max_queries`` is given it both caps the queries answered (one
    per column given to ``query_many``) and inflates the per-query failure
    allowance, replacing ln(1/beta) by ln(max_queries/beta) in the sketch
    dimension.
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
    return RegressState._new(
        n, d, r, budget, acc, seed, s_override, enforce_guard,
        {"ya": d}, query_ceiling=max_queries,
    )

"""Differentially private linear regression from a sketched design matrix.

The design matrix is lifted and sketched once by the lifted-sketch core it
shares with the multiply mechanism, by rows or columns, one block at a
time. A block of query vectors is sketched with the same seeded projection
in one pass over its tiles, and the sketched least-squares problems
min ||Ya x - Yb_j|| are solved together, directly on the sketched design
Ya through its SVD rather than on its normal system, so the solve sees
cond(Ya) and not its square.

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
        q = x.shape[1]
        if self.query_ceiling is not None and self.queries_answered + q > self.query_ceiling:
            raise BudgetExhaustedError(
                f"{q} queries exceed the ceiling of {self.query_ceiling} "
                f"({self.queries_answered} already answered)"
            )
        (yb,) = self._project_data(0, x)
        solutions = numerics.minres_solve(self.ya.data.T, yb.T)
        self.queries_answered += q
        return solutions.T

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

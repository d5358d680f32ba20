"""Single-pass differentially private k-rank approximation.

The mechanism streams the rows of an identity-lifted matrix through a
seeded Gaussian projection (range finding), then reuses the same projection
to solve for the compressed core matrix as a least-squares problem
(projection step), never touching the input a second time. The solve is
made directly on the sketched coefficient matrix by numpy's SVD-based
``lstsq``, not on its normal system.

Symmetric inputs are handled directly. A general n x d input is embedded
into the symmetric block matrix [[w I_n, A], [A.T, w I_d]]; both running
sketches of that block are maintained in the same single pass over A's
rows, and the published approximation of A is the top-right n x d block of
the block reconstruction.

The projection has n lift columns followed by the data columns (d, or n on
the symmetric path). The state keeps only the data block, which every
ingested block reads; each lift column is regenerated for its own rows, and
``finalize`` regenerates the lift block once as a transient.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import guard, numerics, sketch
from .errors import (
    CapacityError,
    ConfigurationError,
    ContractViolationError,
    OnePassViolationError,
)
from .sketch import GaussianSketcher


@dataclass(frozen=True)
class LraConfig:
    n: int
    d: int
    k: int
    budget: guard.PrivacyBudget
    seed: int
    p: Optional[int] = None
    symmetric: bool = False
    w_override: Optional[float] = None
    enforce_guard: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"target rank must be >= 1, got {self.k}")
        p = self.oversample
        if p < 2:
            raise ConfigurationError(f"oversampling must be >= 2, got {p}")
        if self.symmetric:
            if self.n != self.d:
                raise ConfigurationError("symmetric path requires n == d")
            if self.k + p > self.n:
                raise ConfigurationError(
                    f"k + p = {self.k + p} exceeds matrix dimension {self.n}"
                )
        elif self.k + p > min(self.n, self.d):
            raise ConfigurationError(
                f"k + p = {self.k + p} exceeds min(n, d) = {min(self.n, self.d)}"
            )

    @property
    def oversample(self) -> int:
        return self.p if self.p is not None else self.k + 1

    @property
    def effective_budget(self) -> guard.PrivacyBudget:
        # The symmetric-embedding argument costs half the budget in both
        # parameters, always; a caller who wants the mechanism to run at
        # (eps, delta) passes (2 eps, 2 delta).
        return self.budget.halved()


@dataclass
class LowRankFactor:
    """Eigenpair factor (u_hat, lambda) of the published approximation."""

    u_hat: np.ndarray
    lam: np.ndarray
    requested_rank: int

    @property
    def deficient(self) -> bool:
        """Fewer than k numerically nonzero eigenvalues survived, so u_hat
        has reduced width."""
        return self.lam.size < self.requested_rank


@dataclass
class LraState:
    config: LraConfig
    w: float
    sketcher: GaussianSketcher
    omega_data: np.ndarray
    y1: np.ndarray
    y2: Optional[np.ndarray]
    guard_report: guard.GuardReport
    _ingested: np.ndarray = field(default=None, repr=False)
    _finalized: bool = False

    @property
    def rows_seen(self) -> int:
        return int(np.count_nonzero(self._ingested))

    def space_entries(self) -> int:
        """Retained float64 entries: the projection's data block plus sketches."""
        total = self.omega_data.size + self.y1.size
        if self.y2 is not None:
            total += self.y2.size
        return int(total)

    def ingest_rows(self, i0: int, rows) -> None:
        """Consume rows i0, i0+1, ... of the input, each exactly once.

        ``rows`` is a k x width block; the whole block is refused, before
        any state changes, if one of its rows was already ingested.
        """
        if self._finalized:
            raise ContractViolationError("state already finalized")
        cfg = self.config
        x = numerics.as_matrix(rows, "rows")
        i1 = i0 + x.shape[0]
        if not (0 <= i0 <= i1 <= cfg.n):
            raise ContractViolationError(f"rows [{i0}, {i1}) outside [0, {cfg.n})")
        seen = np.flatnonzero(self._ingested[i0:i1])
        if seen.size:
            raise OnePassViolationError(f"row {i0 + int(seen[0])} was already ingested")
        width = cfg.n if cfg.symmetric else cfg.d
        if x.shape[1] != width:
            raise ContractViolationError(f"row length {x.shape[1]}, expected {width}")
        lift_rows = self.sketcher.column_block(i0, i1).T
        self.y1[i0:i1, :] = self.w * lift_rows + x @ self.omega_data
        if not cfg.symmetric:
            self.y2 += x.T @ lift_rows
        self._ingested[i0:i1] = True

    def finalize(self) -> LowRankFactor:
        """Solve the projection step and publish the top-k eigenpairs."""
        cfg = self.config
        if self.rows_seen != cfg.n:
            raise ContractViolationError(f"finalize requires all {cfg.n} rows, saw {self.rows_seen}")
        self._finalized = True
        # y = w * lift_rows + (input) @ data_rows is the sketch of the lifted
        # matrix; the solve removes the lift and recovers the core.
        omega_t = np.vstack([self.sketcher.column_block(0, cfg.n).T, self.omega_data])
        if cfg.symmetric:
            y, lift_rows, data_rows = self.y1, omega_t[: cfg.n], omega_t[cfg.n :]
        else:
            # Deterministic identity-block contribution to the bottom sketch
            # enters here; it never depended on the data.
            y = np.vstack([self.y1, self.y2 + self.w * omega_t[cfg.n :]])
            lift_rows = data_rows = omega_t
        psi = numerics.orthonormal_range(y)
        coeff = psi.T @ data_rows
        lift = coeff if lift_rows is data_rows else psi.T @ lift_rows
        rhs = psi.T @ y - self.w * lift
        # The solve returns the transposed core; symmetrising makes that moot.
        core = numerics.lstsq(coeff.T, rhs.T)
        core = (core + core.T) / 2.0
        lam_all, ubar = np.linalg.eigh(core)
        order = np.argsort(-np.abs(lam_all), kind="stable")
        top = float(np.abs(lam_all).max(initial=0.0))
        keep = order[np.abs(lam_all[order]) > numerics.RANK_RTOL * top][: cfg.k]
        return LowRankFactor(
            u_hat=np.ascontiguousarray(psi @ ubar[:, keep]),
            lam=lam_all[keep].copy(),
            requested_rank=cfg.k,
        )


def new_lra(config: LraConfig) -> LraState:
    cfg = config
    kp = cfg.k + cfg.oversample
    eff = cfg.effective_budget
    w = cfg.w_override if cfg.w_override is not None else guard.lra_lift_w(eff, cfg.k)
    # Conservative: the projection-step threshold evaluated at the full
    # sketch width. At the default p = k+1 the built-in lift clears it
    # whatever eps, except at k = 1 for delta > 2/27 and at k = 2 for
    # delta > ~0.8686. User overrides can trip this.
    report = guard.check_lift("w", w, guard.sigma_min_psg2(eff, kp), cfg.enforce_guard)
    # The state keeps only the data block (columns n..m) of the projection.
    # ``finalize`` stacks the whole kp x m projection once, so a config whose
    # projection exceeds MAX_SKETCH_ENTRIES is refused here, before any row.
    m = 2 * cfg.n if cfg.symmetric else cfg.n + cfg.d
    if kp * m > sketch.MAX_SKETCH_ENTRIES:
        raise CapacityError(
            f"projection block of {kp}x{m} exceeds the {sketch.MAX_SKETCH_ENTRIES} entry budget"
        )
    sketcher = GaussianSketcher(cfg.seed, r=kp, m=m)
    y2 = None if cfg.symmetric else np.zeros((cfg.d, kp))
    return LraState(
        config=cfg,
        w=float(w),
        sketcher=sketcher,
        omega_data=np.ascontiguousarray(sketcher.column_block(cfg.n, m).T),
        y1=np.zeros((cfg.n, kp)),
        y2=y2,
        guard_report=report,
        _ingested=np.zeros(cfg.n, dtype=bool),
    )


def reconstruct(factor: LowRankFactor, config: LraConfig) -> np.ndarray:
    """Densify the published factor for inspection and testing.

    Symmetric path: the full n x n reconstruction (exactly symmetric).
    Block path: the top-right n x d block of the block reconstruction.
    """
    m = (factor.u_hat * factor.lam) @ factor.u_hat.T
    m = (m + m.T) / 2.0
    if config.symmetric:
        return m
    return np.ascontiguousarray(m[: config.n, config.n :])

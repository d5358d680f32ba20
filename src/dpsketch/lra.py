"""Single-pass differentially private k-rank approximation.

The mechanism streams the rows of an identity-lifted matrix through a
seeded Gaussian projection (range finding), then reuses the same projection
to solve for the compressed core matrix as a least-squares problem
(projection step), never touching the input a second time. The solve is
made directly on the sketched coefficient matrix by numpy's SVD-based
``lstsq``, not on its normal system.

Symmetric inputs are handled directly. A general n x d input is embedded
into the symmetric block matrix M = [[w I_n, A], [A.T, w I_d]], and the
state keeps one sketch y of M, built in the same single pass over A's rows;
the published approximation of A is the top-right n x d block of the block
reconstruction.

The projection has n lift columns followed by the data columns (d, or n on
the symmetric path), and the state keeps none of it: like the multiply and
regression sketches, it retains its sketch y alone, and construction
generates nothing: y starts as zeros. Each ingested block regenerates its
lift columns in one walk of tiles and the whole data block in another,
whose tiles add the block's share of both row blocks of y; that walk
costs the same whatever the block's row count, so larger blocks amortise
it. On the general path the bottom block's lift, w times the data block
(M's w I_d), enters with row 0: the block that holds it adds the lift in
the data walk it makes anyway. Row 0 is ingested exactly once, so the
lift enters once, and a merge of two shards is a plain sum of their
sketches, since at most one of them holds row 0.
``finalize`` applies the projection to the range basis in
``project_blocks`` passes. A walk continues one Philox stream from tile
to tile and refills one buffer, so each holds a transient of one tile, and
each tile is the only request the size cap applies to: the state has no
cap of its own.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import guard, numerics
from .errors import ConfigurationError, ContractViolationError, OnePassViolationError
from .sketch import GaussianSketcher, _tiles


@dataclass(frozen=True)
class LraConfig:
    """Shape, rank and budget of one low-rank release.

    The seed is the mechanism's secret: the projection is a pure function of
    it, so anyone who knows it can recompute the release from each candidate
    input. The curator and its shards, which share one sketcher, hold it;
    the public never gets it.
    """

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
    y: np.ndarray
    guard_report: guard.GuardReport
    _ingested: np.ndarray = field(default=None, repr=False)
    _finalized: bool = False

    @property
    def rows_seen(self) -> int:
        return int(np.count_nonzero(self._ingested))

    def space_entries(self) -> int:
        """Retained float64 entries: the sketch y alone (the projection is regenerated)."""
        return int(self.y.size)

    def lifted(self, a: np.ndarray) -> np.ndarray:
        """Densify the lifted rows [w I_n, A] this state sketches (oracle use only)."""
        return np.hstack([self.w * np.eye(self.config.n), a])

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
        sk, n = self.sketcher, cfg.n
        # The block's own lift columns, one tile at a time; nothing changes
        # until both walks have passed their cap check.
        lift = np.empty((x.shape[0], sk.r))
        for t0, t1, tile in _tiles(sk, i0, i1):
            lift[t0 - i0 : t1 - i0] = tile.T
        # The data block, regenerated tile by tile: each tile adds its
        # columns' share of x @ (data block) to the block's top rows and, on
        # the general path, takes its own bottom rows' share of x.T @ lift.
        # The block that holds row 0 first adds the tile's share of the
        # bottom block's lift, w times the tile; it adds rather than sets,
        # since row 0 may come after other rows.
        top = self.w * lift
        bottom_lift = not cfg.symmetric and i0 == 0 < i1
        for t0, t1, tile in _tiles(sk, n, n + width):
            cols = x[:, t0 - n : t1 - n]
            top += cols @ tile.T
            if bottom_lift:
                self.y[t0:t1] += self.w * tile.T
            if not cfg.symmetric:
                self.y[t0:t1] += cols.T @ lift
        self.y[i0:i1] = top
        self._ingested[i0:i1] = True

    def merge(self, other: LraState) -> LraState:
        """Combine two shards of the same stream into a new state.

        The sketches add and the ingested rows join: each shard's y holds
        only its own rows' terms, and the bottom lift enters with row 0,
        which at most one shard holds, so nothing is regenerated. Shards of
        another type or config, finalized shards and shards that share a
        row are refused, and neither shard changes.
        """
        if type(other) is not type(self):
            raise ContractViolationError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self._finalized or other._finalized:
            raise ContractViolationError("cannot merge a finalized state")
        if self.config != other.config:
            raise ContractViolationError("cannot merge states with different configs")
        shared = np.flatnonzero(self._ingested & other._ingested)
        if shared.size:
            raise OnePassViolationError(f"row {int(shared[0])} was ingested by both shards")
        return dataclasses.replace(
            self, y=self.y + other.y, _ingested=self._ingested | other._ingested
        )

    def finalize(self) -> LowRankFactor:
        """Solve the projection step and publish the top-k eigenpairs."""
        cfg = self.config
        if self.rows_seen != cfg.n:
            raise ContractViolationError(f"finalize requires all {cfg.n} rows, saw {self.rows_seen}")
        self._finalized = True
        # y is the sketch of the lifted matrix; the solve removes the lift
        # and recovers the core. y is only read, so finalize can repeat.
        psi = numerics.orthonormal_range(self.y)
        # psi.T against the lift rows and the data rows of omega.T, walked
        # tile by tile. On the general path both row blocks of the block
        # matrix carry the one projection, so the coefficient is the lift
        # term, and one walk over all n + d columns gives it.
        lift = self.sketcher.project_blocks(0, [psi])[0].T
        if cfg.symmetric:
            coeff = self.sketcher.project_blocks(cfg.n, [psi])[0].T
        else:
            coeff = lift
        rhs = psi.T @ self.y - self.w * lift
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
    m = 2 * cfg.n if cfg.symmetric else cfg.n + cfg.d
    # One sketch of the lifted matrix: n top rows, and d bottom rows on the
    # general path. It starts as zeros and nothing is generated here: every
    # term, the bottom block's lift included, enters with the rows ingested.
    return LraState(
        config=cfg,
        w=float(w),
        sketcher=GaussianSketcher(cfg.seed, r=kp, m=m),
        y=np.zeros((cfg.n if cfg.symmetric else m, kp)),
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

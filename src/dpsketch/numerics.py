"""Dense linear-algebra kernels: SVD, orthonormal range and least squares.

All operations are pure functions on immutable float64 arrays and are safe
to call concurrently. Least-squares problems are solved directly from the
SVD of their coefficient matrix, never through its normal system, which
would square the condition number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, IllPosedSystemError, NumericFailureError

# Relative singular-value cutoff separating numerical rank from noise floor.
RANK_RTOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(m)


def as_vector(a, name: str = "vector") -> np.ndarray:
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolationError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if v.size and not np.isfinite(v).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(v)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD factors: u (orthonormal columns), sigma (descending), vt."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def svd(m) -> SvdResult:
    """Thin SVD with a pinned sign convention.

    The first nonzero entry of every left singular vector is made
    non-negative, so repeated calls on identical input agree bitwise.
    """
    a = as_matrix(m)
    if a.size == 0:
        raise ContractViolationError("svd of an empty matrix")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"svd did not converge: {exc}") from exc
    nz = u != 0.0
    first = np.where(nz.any(axis=0), nz.argmax(axis=0), 0)
    signs = np.sign(u[first, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = np.ascontiguousarray(u * signs)
    vt = np.ascontiguousarray(vt * signs[:, None])
    return SvdResult(u=u, sigma=s, vt=vt)


@dataclass(frozen=True)
class RangeResult:
    """Orthonormal basis for a column span, truncated to numerical rank."""

    basis: np.ndarray
    rank: int
    deficient: bool


def orthonormal_range(y) -> RangeResult:
    """Orthonormal basis whose span equals the column span of ``y``.

    Rank-deficient input is not an error: the basis is truncated to the
    numerical rank and flagged, because the low-rank mechanism tolerates a
    reduced range.
    """
    a = as_matrix(y, "y")
    res = svd(a)
    top = float(res.sigma[0]) if res.sigma.size else 0.0
    rank = int(np.count_nonzero(res.sigma > RANK_RTOL * top)) if top > 0.0 else 0
    basis = np.ascontiguousarray(res.u[:, :rank])
    return RangeResult(basis=basis, rank=rank, deficient=rank < a.shape[1])


def minres_solve(coeff, rhs) -> np.ndarray:
    """Minimize ||B @ coeff - rhs||_F over B by a direct SVD solve.

    Parameters
    ----------
    coeff : (k, l) array with l >= k and numerically full row rank.
    rhs : (q, l) array sharing coeff's column count.

    Returns
    -------
    (q, k) array B. Each row solves an independent least-squares problem
    min ||coeff.T @ b - r||_2 through the thin SVD coeff = U S Vt, as
    B = rhs Vt.T S^-1 U.T. The solve works on coeff itself, never on its
    normal system, so its accuracy depends on cond(coeff), not its square.
    """
    c = as_matrix(coeff, "coeff")
    r = as_matrix(rhs, "rhs")
    if c.shape[1] != r.shape[1]:
        raise ContractViolationError(
            f"coeff and rhs column counts differ: {c.shape[1]} vs {r.shape[1]}"
        )
    k, ell = c.shape
    if ell < k:
        raise ContractViolationError("coeff must have at least as many columns as rows")
    res = svd(c)
    sig = res.sigma
    if sig[0] == 0.0 or sig[-1] <= RANK_RTOL * sig[0]:
        bt, *_ = np.linalg.lstsq(c.T, r.T, rcond=None)
        achieved = float(np.linalg.norm(bt.T @ c - r))
        raise IllPosedSystemError(
            f"coeff is numerically rank deficient (sigma_min={sig[-1]:.3e}); "
            f"least-squares fallback residual {achieved:.3e}",
            residual=achieved,
        )
    return (r @ res.vt.T / sig) @ res.u.T

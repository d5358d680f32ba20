"""Dense linear-algebra kernels: SVD, orthonormal range and least squares.

All operations are pure functions on immutable float64 arrays and are safe
to call concurrently. Least-squares problems go to numpy's SVD-based
``lstsq`` on their coefficient matrix, never through its normal system,
which would square the condition number.
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


def orthonormal_range(y) -> np.ndarray:
    """Orthonormal basis whose span equals the column span of ``y``.

    Rank-deficient input is not an error: the basis is truncated to the
    numerical rank (its column count), because the low-rank mechanism
    tolerates a reduced range.
    """
    res = svd(as_matrix(y, "y"))
    rank = int(np.count_nonzero(res.sigma > RANK_RTOL * res.sigma[0]))
    return np.ascontiguousarray(res.u[:, :rank])


def lstsq(a, b) -> np.ndarray:
    """Minimize ||a @ x - b||_F over x, one column of ``b`` at a time.

    ``a`` is (l, k) with numerically full column rank, ``b`` is (l, q);
    returns the (k, q) solution. numpy's SVD-based solver works on ``a``
    itself, never on its normal system, so its accuracy depends on
    cond(a), not its square. Singular values at or below RANK_RTOL times
    the largest count as zero; a rank below k raises IllPosedSystemError
    carrying the residual of the solution found.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ContractViolationError(f"a and b row counts differ: {a.shape[0]} vs {b.shape[0]}")
    try:
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=RANK_RTOL)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"lstsq did not converge: {exc}") from exc
    if rank < a.shape[1]:
        achieved = float(np.linalg.norm(a @ x - b))
        raise IllPosedSystemError(
            f"a is numerically rank deficient (rank {rank} of {a.shape[1]}); "
            f"least-squares residual {achieved:.3e}",
            residual=achieved,
        )
    return x

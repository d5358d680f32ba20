"""Dense linear-algebra kernels: orthonormal range and least squares.

All operations are pure functions on immutable float64 arrays and are safe
to call concurrently. Least-squares problems go to numpy's SVD-based
``lstsq`` on their coefficient matrix, never through its normal system,
which would square the condition number.
"""
from __future__ import annotations

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


def orthonormal_range(y) -> np.ndarray:
    """Orthonormal basis whose span equals the column span of ``y``.

    Rank-deficient input is not an error: the basis is truncated to the
    numerical rank (its column count), because the low-rank mechanism
    tolerates a reduced range.
    """
    a = as_matrix(y, "y")
    if a.size == 0:
        raise ContractViolationError("range of an empty matrix")
    try:
        u, sigma, _ = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"svd did not converge: {exc}") from exc
    rank = int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))
    return np.ascontiguousarray(u[:, :rank])


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

"""Privacy-parameter calculus: spectral-guard thresholds, lift magnitudes,
sketch dimensions, and advanced composition.

All formulas use the natural logarithm. The sketch-generator thresholds are
minimum singular values a streamed matrix must clear; the lift helpers
return scaled-identity magnitudes that force a matrix above its threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    BudgetExhaustedError,
    ContractViolationError,
    NumericFailureError,
    ParameterDomainError,
    SpectralGuardError,
)

# Pinned constants for the big-O parameter choices; none is overridable.
LRA_LIFT_CONSTANT = 16.0
MATMULT_DIM_CONSTANT = 8.0
LINREG_DIM_CONSTANT = 16.0


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta) privacy parameters with eps > 0 and 0 < delta < 1."""

    eps: float
    delta: float

    def __post_init__(self):
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ParameterDomainError(f"eps must be positive and finite, got {self.eps}")
        if not (0.0 < self.delta < 1.0):
            raise ParameterDomainError(f"delta must lie in (0, 1), got {self.delta}")

    def halved(self) -> "PrivacyBudget":
        return PrivacyBudget(self.eps / 2.0, self.delta / 2.0)


@dataclass(frozen=True)
class AccuracySpec:
    """(alpha, beta) accuracy parameters, both in (0, 1)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterDomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.beta < 1.0):
            raise ParameterDomainError(f"beta must lie in (0, 1), got {self.beta}")


@dataclass(frozen=True)
class GuardReport:
    required_sigma_min: float
    observed_sigma_min: float

    @property
    def passed(self) -> bool:
        """Whether the observed sigma_min clears the threshold; False for NaN."""
        return self.observed_sigma_min >= self.required_sigma_min

    def to_json_dict(self) -> dict:
        return {
            "required_sigma_min": self.required_sigma_min,
            "observed_sigma_min": self.observed_sigma_min,
            "passed": self.passed,
        }


def _check_r(r: int) -> int:
    if int(r) != r or r < 1:
        raise ParameterDomainError(f"sketch dimension must be a positive integer, got {r}")
    return int(r)


def _ln(x: float, what: str) -> float:
    if x <= 1.0:
        raise ParameterDomainError(f"log argument for {what} must exceed 1, got {x}")
    return math.log(x)


def sigma_min_psg1(budget: PrivacyBudget, r: int) -> float:
    """Guard threshold for the direct projection sketch generator."""
    r = _check_r(r)
    return (
        4.0
        * math.sqrt(r * _ln(2.0 / budget.delta, "2/delta"))
        * _ln(r / budget.delta, "r/delta")
        / budget.eps
    )


def sigma_min_psg2(budget: PrivacyBudget, r: int) -> float:
    """Guard threshold for the reprojected (omega.T omega) sketch generator."""
    r = _check_r(r)
    return 4.0 * r * _ln(r / budget.delta, "r/delta") / budget.eps


def lra_lift_w(budget: PrivacyBudget, k: int) -> float:
    """Identity-lift magnitude for the low-rank mechanism."""
    k = _check_r(k)
    return LRA_LIFT_CONSTANT * k * _ln(k / budget.delta, "k/delta") / budget.eps


def lift_scale_s(budget: PrivacyBudget, r) -> float:
    """Identity-lift magnitude for the multiply/regression mechanisms.

    Accepts a non-integral r so the closed-form identity with the
    regression dimension formula can be checked exactly.
    """
    if r < 1:
        raise ParameterDomainError(f"sketch dimension must be >= 1, got {r}")
    return (
        math.sqrt(16.0 * r * _ln(2.0 / budget.delta, "2/delta"))
        / budget.eps
        * _ln(16.0 * r / budget.delta, "16r/delta")
    )


def matmult_sketch_dim(acc: AccuracySpec) -> int:
    """Sketch dimension making the multiply tail bound 2exp(-r a^2/8) <= beta."""
    return math.ceil(MATMULT_DIM_CONSTANT * math.log(2.0 / acc.beta) / acc.alpha**2)


def linreg_sketch_dim(acc: AccuracySpec, d: int) -> int:
    """Sketch dimension for the regression mechanism (linear in d)."""
    d = _check_r(d)
    return math.ceil(LINREG_DIM_CONSTANT * d * math.log(1.0 / acc.beta) / acc.alpha)


def compose(eps0: float, delta0: float, ell: int, delta_prime: float) -> PrivacyBudget:
    """Advanced composition of ell identical (eps0, delta0) releases.

    Returns (sqrt(2 ell ln(1/delta')) eps0 + 2 ell eps0^2, ell delta0 + delta').
    """
    if eps0 <= 0.0 or delta0 <= 0.0 or delta_prime <= 0.0:
        raise ParameterDomainError("composition inputs must be positive")
    if int(ell) != ell or ell < 1:
        raise ParameterDomainError(f"ell must be a positive integer, got {ell}")
    delta_total = ell * delta0 + delta_prime
    if delta_total >= 1.0:
        raise BudgetExhaustedError(
            f"composed delta {delta_total:.3g} leaves the valid region"
        )
    eps_total = math.sqrt(2.0 * ell * math.log(1.0 / delta_prime)) * eps0 + 2.0 * ell * eps0**2
    return PrivacyBudget(eps_total, delta_total)


def check_lift(name: str, lift: float, required: float, enforce: bool) -> GuardReport:
    """The structural guard decision: the lifted stream has sigma_min >= lift.

    A non-finite lift is refused (``ParameterDomainError``) whatever ``enforce`` says.
    Raises ``SpectralGuardError`` when ``enforce`` is set and the lift
    falls short of the threshold; otherwise the report records the outcome.
    """
    lift, required = float(lift), float(required)
    if not math.isfinite(lift):
        raise ParameterDomainError(f"lift {name}={lift} is not finite")
    report = GuardReport(required_sigma_min=required, observed_sigma_min=lift)
    if enforce and not report.passed:
        raise SpectralGuardError(
            f"lift {name}={lift:.4g} fails the spectral guard threshold {required:.4g}"
        )
    return report


def verify_spectral_guard(m, required: float) -> GuardReport:
    """Check that the smallest singular value of ``m`` clears a threshold."""
    a = numerics.as_matrix(m)
    if a.size == 0:
        raise ContractViolationError("spectral guard of an empty matrix")
    try:
        sigma = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"svd did not converge: {exc}") from exc
    return GuardReport(float(required), float(sigma[-1]))

"""Differentially private streaming linear algebra.

Single-pass sketch generators for matrix streams, spectral-guard privacy
calculus, and mechanisms for low-rank approximation, matrix multiplication,
and linear regression, plus a Monte-Carlo harness that checks the claimed
error bounds at desk scale.
"""

from .errors import (
    BudgetExhaustedError,
    CapacityError,
    ConfigurationError,
    ContractViolationError,
    DPSketchError,
    FormatError,
    IllPosedSystemError,
    NumericFailureError,
    OnePassViolationError,
    ParameterDomainError,
    SpectralGuardError,
)
from .guard import AccuracySpec, GuardReport, PrivacyBudget
from .lra import LowRankFactor, LraConfig, LraState, new_lra, reconstruct
from .matprod import MatProdState, new_matprod
from .regress import RegressState, new_regress
from .sketch import GaussianSketcher

__version__ = "0.1.0"

__all__ = [
    "AccuracySpec",
    "BudgetExhaustedError",
    "CapacityError",
    "ConfigurationError",
    "ContractViolationError",
    "DPSketchError",
    "FormatError",
    "GaussianSketcher",
    "GuardReport",
    "IllPosedSystemError",
    "LowRankFactor",
    "LraConfig",
    "LraState",
    "MatProdState",
    "NumericFailureError",
    "OnePassViolationError",
    "ParameterDomainError",
    "PrivacyBudget",
    "RegressState",
    "SpectralGuardError",
    "new_lra",
    "new_matprod",
    "new_regress",
    "reconstruct",
]

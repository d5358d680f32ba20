"""Exception taxonomy shared across the library."""


class DPSketchError(Exception):
    """Base class for all library errors."""


class ContractViolationError(DPSketchError, ValueError):
    """An argument violated an operation's contract (shape, finiteness, index)."""


class ParameterDomainError(DPSketchError, ValueError):
    """A privacy/accuracy parameter fell outside its admissible domain."""


class CapacityError(DPSketchError, ValueError):
    """One projection request (a ``column_block`` or a tile of a tiled
    pass) would exceed MAX_SKETCH_ENTRIES."""


class NumericFailureError(DPSketchError, RuntimeError):
    """A numerical kernel failed to converge or produced non-finite output."""


class IllPosedSystemError(DPSketchError, RuntimeError):
    """A linear system was numerically rank-deficient.

    Carries the residual of the least-squares solution that was found, so
    callers can decide whether that answer is still usable.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class OnePassViolationError(DPSketchError, RuntimeError):
    """A streaming mechanism saw the same row twice."""


class BudgetExhaustedError(DPSketchError, RuntimeError):
    """A composed privacy budget left the valid (eps, delta) region."""


class SpectralGuardError(DPSketchError, RuntimeError):
    """A mechanism's lift provably fails its spectral guard threshold."""


class ConfigurationError(DPSketchError, ValueError):
    """Mechanism configuration is internally inconsistent."""


class FormatError(DPSketchError, ValueError):
    """A matrix file is malformed."""

"""Exception types shared across the package."""


class QrecsimError(Exception):
    """Base class for package-specific failures."""


class MatrixError(QrecsimError):
    """Invalid matrix or vector input (shape, finiteness, emptiness)."""


class EmptyRowError(QrecsimError):
    """A length-squared sample was requested from a row with zero weight."""


class StoreFormatError(QrecsimError):
    """A serialized store blob or triplet file is malformed.

    Carries the byte offset (binary) or line number (text) where parsing
    failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class ColdStartError(QrecsimError):
    """The requested user has no stored entries, so no state can be prepared."""


class ProjectionEmptyError(QrecsimError):
    """Threshold projection failed every allowed repetition.

    Raised after max_iterations consecutive rejected trials; carries the
    success probability that was being drawn against.
    """

    def __init__(self, message: str, beta_sq: float, iterations: int):
        super().__init__(message)
        self.beta_sq = beta_sq
        self.iterations = iterations


class BoundVacuousError(QrecsimError):
    """Requested analytic bound is undefined or >= 1 for these parameters."""


class RegisterCapError(QrecsimError):
    """A circuit-path allocation would exceed the simulator's entry cap."""

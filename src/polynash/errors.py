"""Exception types shared across the package."""

__all__ = [
    "AdmissibilityError",
    "ContractError",
    "CostTableRangeError",
    "EnumerationTooLargeError",
    "GameError",
    "GenerationError",
    "InfeasibleTruncationError",
    "InvariantError",
    "MalformedInputError",
    "ParseError",
    "ValidationError",
]


class GameError(Exception):
    """Base class for every error raised by this package."""


class MalformedInputError(GameError):
    """An argument has the wrong shape, sign, or size."""


class InfeasibleTruncationError(GameError):
    """A demand exceeds the rank of the full resource set."""


class EnumerationTooLargeError(GameError):
    """An exhaustive enumeration would exceed its cap."""


class CostTableRangeError(GameError):
    """A cost table is too short for a requested evaluation."""


class AdmissibilityError(GameError):
    """Chain weights decrease along a chain."""


class ValidationError(GameError):
    """An instance or profile violates a structural requirement.

    ``witness`` carries machine-readable data locating the first violation
    (subset masks, table indices, or inequality quadruples, depending on the
    failed check).
    """

    def __init__(self, message: str, *, witness=None):
        super().__init__(message)
        self.witness = witness


class ContractError(GameError):
    """A documented precondition of an operation was violated by the caller."""


class InvariantError(GameError):
    """An internal invariant failed; indicates a bug or corrupted state."""


class ParseError(GameError):
    """A document cannot be parsed; carries a position when one is known."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class GenerationError(GameError):
    """Rejection sampling exhausted its retry budget."""

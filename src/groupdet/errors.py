"""Exception hierarchy shared by all groupdet modules."""
from __future__ import annotations

__all__ = [
    "GroupdetError",
    "ValidationError",
    "ParseError",
    "PreconditionError",
    "StructuralError",
    "NoncommutingImagesError",
    "DeterminantUndefinedError",
    "InversionError",
    "FactorizationError",
    "ResourceLimitError",
]


class GroupdetError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GroupdetError):
    """A multiplication table failed a structural check (Latin square, associativity).

    When one row or column is not a permutation, ``line`` names it as
    ("row", i) or ("column", j), counted from 0, and ``reason`` is the
    message after that name; a table file renumbers it as the file counts.
    """

    def __init__(self, reason: str, line: tuple[str, int] | None = None):
        super().__init__(reason if line is None else f"{line[0]} {line[1]} {reason}")
        self.reason = reason
        self.line = line


class ParseError(GroupdetError):
    """A group expression or serialized payload could not be parsed."""


class PreconditionError(GroupdetError):
    """An operation was called on arguments outside its documented domain."""


class StructuralError(GroupdetError):
    """An algebraic object violates one of its structural invariants."""


class NoncommutingImagesError(StructuralError):
    """A pointwise sum or difference was evaluated on maps whose images fail to commute."""


class DeterminantUndefinedError(GroupdetError):
    """No admissible pivot exists, so the requested determinant cannot be formed.

    Distinct from non-invertibility: a matrix may have an undefined determinant
    and still be invertible (or not); the caller must fall back to a direct
    bijectivity check to decide.
    """

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class InversionError(GroupdetError):
    """The requested inverse does not exist."""


class FactorizationError(GroupdetError):
    """A requested matrix factorization does not exist for this input."""


class ResourceLimitError(GroupdetError):
    """An enumeration would exceed the configured size bound."""

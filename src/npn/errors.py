"""Exception types shared across the package.

Every error raised by the library derives from :class:`NpnError`, so callers
can catch one base class at the CLI boundary. The hierarchy distinguishes
data problems (bad input files, non-finite values) from numeric failures
(singular matrices, convergence breakdown) because the two map to different
process exit codes.
"""

__all__ = [
    "NpnError",
    "DomainError",
    "NotPositiveDefinite",
    "NoConvergence",
    "DegenerateColumn",
    "SingularScatter",
    "InsufficientSamples",
    "DegenerateDraw",
    "ParseError",
    "NonFiniteValue",
    "EmptyFile",
]


class NpnError(Exception):
    """Base class for all library errors."""


class DomainError(NpnError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class NotPositiveDefinite(NpnError):
    """A Cholesky pivot was non-positive: the matrix is singular or indefinite."""


class NoConvergence(NpnError):
    """The eigensolver exceeded its iteration budget."""


class DegenerateColumn(NpnError):
    """A data column has zero rank variance (all values tied)."""


class SingularScatter(NpnError):
    """The empirical scatter matrix is rank deficient (n <= D or exact collinearity)."""


class InsufficientSamples(NpnError):
    """Fewer samples than the estimator's minimum (e.g. n <= k for kNN)."""


class DegenerateDraw(NpnError):
    """Random matrix sampling kept producing near-singular draws past the retry cap."""


class ParseError(NpnError):
    """A CSV cell failed to parse; carries 1-based row and column positions."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class NonFiniteValue(ParseError):
    """A parsed value is NaN or infinite; carries its position."""


class EmptyFile(NpnError):
    """The input file contains no data rows."""

"""Exception types shared across the package.

Every error raised by the library derives from :class:`NpnError`, so callers
can catch one base class at the CLI boundary. Data problems (bad input
files, non-finite values) derive from :class:`DataError` and numeric
failures (singular matrices, convergence breakdown, too few samples) from
:class:`NumericError`, because the two map to different process exit codes.
"""

__all__ = [
    "NpnError",
    "DataError",
    "NumericError",
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


class DataError(NpnError):
    """The input data could not be read: a bad file, cell or value."""


class NumericError(NpnError):
    """The data were read, but the computation on them failed."""


class DomainError(NpnError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class NotPositiveDefinite(NumericError):
    """A Cholesky pivot was non-positive: the matrix is singular or indefinite."""


class NoConvergence(NumericError):
    """The eigensolver exceeded its iteration budget."""


class DegenerateColumn(NumericError):
    """A data column has zero rank variance (all values tied)."""


class SingularScatter(NumericError):
    """The empirical scatter matrix is rank deficient (n <= D or exact collinearity)."""


class InsufficientSamples(NumericError):
    """Fewer samples than the estimator's minimum (e.g. n <= k for kNN)."""


class DegenerateDraw(NumericError):
    """Random matrix sampling kept producing near-singular draws past the retry cap."""


class ParseError(DataError):
    """A CSV cell failed to parse; carries 1-based row and column positions."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class NonFiniteValue(ParseError):
    """A parsed value is NaN or infinite; carries its position."""


class EmptyFile(DataError):
    """The input file contains no data rows."""

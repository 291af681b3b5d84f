"""Symmetric-matrix numerics.

This module provides the small set of dense linear algebra operations the
estimators are built on: Cholesky-based log-determinants, symmetric
eigendecomposition, the Frobenius projection onto the cone

    S(z) = { symmetric A : lambda_min(A) >= z },

and closed-form eigenvalue bounds for bandable correlation matrices
(entries decaying like ``c**|i-j|``).

Matrices are plain ``float64`` ndarrays. Inputs are symmetrized as
``(A + A.T) / 2`` on entry rather than rejected, because covariance
accumulation routinely produces asymmetry at the 1e-16 level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoConvergence, NotPositiveDefinite

__all__ = [
    "EigenDecomposition",
    "as_symmetric",
    "as_correlation",
    "cholesky_logdet",
    "sym_eigen",
    "project_to_cone",
    "bandable_eigen_bounds",
    "is_bandable",
]


class EigenDecomposition(NamedTuple):
    """Eigenpairs of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (D,)
        Real eigenvalues sorted in nonincreasing order, so the smallest is
        addressable as ``eigenvalues[-1]``.
    eigenvectors : ndarray, shape (D, D)
        Orthonormal eigenvectors as columns, ordered to match.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _real_array(a, what: str) -> np.ndarray:
    """``a`` as a float64 array, without a copy when it already is one.

    Boolean input reads as 0/1. Raises DomainError, naming ``what``, for
    complex values, text (an object array holding str or bytes included)
    and ragged or otherwise non-numeric input.
    """
    try:
        m = np.asarray(a)
        text = m.dtype.kind in "US" or (
            m.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in m.flat)
        )
        if not text and m.dtype.kind != "c":
            m = m.astype(np.float64, copy=False)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"{what} must be numeric: {exc}") from exc
    if text:
        raise DomainError(f"{what} must be numeric, got text")
    if m.dtype.kind == "c":
        raise DomainError(f"{what} must be real, got complex values")
    return m


def as_symmetric(a) -> np.ndarray:
    """Coerce ``a`` to a square float64 array and symmetrize it.

    Parameters
    ----------
    a : array_like, shape (D, D)
        Square matrix; asymmetry is averaged away as ``(A + A.T) / 2``.

    Returns
    -------
    ndarray
        Exactly symmetric float64 copy of ``a``.

    Raises
    ------
    DomainError
        If ``a`` is not a square 2-d array of real numbers with D >= 1,
        or contains non-finite entries.
    """
    m = _real_array(a, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return _symmetric_stack(m)


def _symmetric_stack(m: np.ndarray) -> np.ndarray:
    """:func:`as_symmetric` of every matrix of a float64 stack (..., D, D), shape unchecked."""
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix contains non-finite entries")
    return _symmetrize(m)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """``(m + m.T) / 2`` of each matrix, taking ``m / 2 + m.T / 2`` only where the sum overflows."""
    mt = np.swapaxes(m, -1, -2)
    with np.errstate(over="ignore"):
        out = (m + mt) / 2.0
    over = np.isinf(out)
    if over.any():
        out[over] = (m / 2.0 + mt / 2.0)[over]
    return out


def as_correlation(a, atol: float = 1e-12) -> np.ndarray:
    """Validate ``a`` as a correlation matrix and return it symmetrized.

    Checks that every diagonal entry equals 1 within ``atol`` and every
    off-diagonal entry lies in [-1, 1] (within ``atol``). The diagonal is
    then set to exactly 1.

    Raises
    ------
    DomainError
        If the diagonal or the off-diagonal range check fails.
    """
    m = as_symmetric(a)
    d = np.diag(m)
    if np.max(np.abs(d - 1.0)) > atol:
        raise DomainError("correlation matrix must have unit diagonal")
    if np.max(np.abs(m)) > 1.0 + atol:
        raise DomainError("correlation entries must lie in [-1, 1]")
    np.fill_diagonal(m, 1.0)
    return m


def cholesky_logdet(a) -> float:
    """Log-determinant of a symmetric positive definite matrix.

    Computes the Cholesky factor L and returns ``2 * sum(log(diag(L)))``,
    which is numerically preferable to ``log(det(A))`` because it never
    forms the (possibly under/overflowing) determinant.

    Parameters
    ----------
    a : array_like, shape (D, D)
        Symmetric positive definite matrix.

    Returns
    -------
    float
        ``log det A``.

    Raises
    ------
    NotPositiveDefinite
        If a pivot is non-positive, i.e. ``a`` is singular or indefinite.
    """
    return float(_logdet_stack(as_symmetric(a)))


def _logdet_stack(m: np.ndarray) -> np.ndarray:
    """:func:`cholesky_logdet` of every matrix of an exactly symmetric stack (..., D, D).

    One stacked Cholesky call factors each matrix as a lone call does, and
    each log-determinant is its own row's sum, so the bits are those of
    one call per matrix. Raises NotPositiveDefinite if any matrix is not
    positive definite.
    """
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def sym_eigen(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    a : array_like, shape (D, D)
        Symmetric matrix (symmetrized on entry).

    Returns
    -------
    EigenDecomposition
        Eigenvalues in nonincreasing order with matching eigenvector
        columns; satisfies ``Q @ diag(w) @ Q.T == A`` to around 1e-12
        relative accuracy.

    Raises
    ------
    NoConvergence
        If the underlying iterative reduction fails to converge.
    """
    m = as_symmetric(a)
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=w[::-1].copy(), eigenvectors=q[:, ::-1].copy())


def project_to_cone(a, z: float) -> np.ndarray:
    """Frobenius projection of a symmetric matrix onto S(z).

    Eigenvalues below ``z`` are clamped up to ``z`` while eigenvectors are
    kept, which is the unique Frobenius-nearest member of the cone of
    symmetric matrices with smallest eigenvalue >= z. Matrices already in
    the cone are returned unchanged up to reconstruction roundoff.

    Parameters
    ----------
    a : array_like, shape (D, D)
        Symmetric matrix.
    z : float
        Positive eigenvalue floor.

    Returns
    -------
    ndarray
        The projected matrix, exactly symmetric.

    Raises
    ------
    DomainError
        If ``z`` is not positive and finite, or the projection overflows.
    NoConvergence
        Propagated from :func:`sym_eigen`.
    """
    if not 0.0 < z < math.inf:
        raise DomainError(f"eigenvalue floor z must be positive and finite, got {z}")
    m = as_symmetric(a)
    w, q = sym_eigen(m)
    if w[-1] >= z:
        return m
    clamped = np.maximum(w, z)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _symmetrize((q * clamped) @ q.T)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"projection at floor z={z} overflows the float range")
    return out


def bandable_eigen_bounds(c: float, d: int) -> tuple[float, float]:
    """Eigenvalue bounds for c-bandable correlation matrices.

    For any symmetric unit-diagonal matrix with ``|A[i, j]| <= c**|i-j|``
    the Gershgorin disc radius is at most ``2c/(1-c)`` in every row, giving
    dimension-free bounds

        lower = (1 - 3c) / (1 - c),   upper = (1 + c) / (1 - c).

    The lower bound is only a positivity guarantee when ``c < 1/3``.

    Parameters
    ----------
    c : float
        Decay base, 0 < c < 1.
    d : int
        Matrix dimension; the bounds do not depend on it, but it is kept in
        the signature so callers document the regime they are using.

    Returns
    -------
    (float, float)
        ``(lower, upper)``.

    Raises
    ------
    DomainError
        If ``c`` is outside (0, 1) or ``d < 1``.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"bandable decay c must lie in (0, 1), got {c}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return (1.0 - 3.0 * c) / (1.0 - c), (1.0 + c) / (1.0 - c)


def is_bandable(a, c: float, atol: float = 1e-12) -> bool:
    """Check the entrywise bandable bound ``|A[i, j]| <= c**|i-j|``.

    Parameters
    ----------
    a : array_like, shape (D, D)
        Correlation matrix.
    c : float
        Decay base, 0 < c < 1.
    atol : float
        Slack added to the bound so boundary cases constructed in floating
        point count as bandable.

    Raises
    ------
    DomainError
        If ``c`` is outside (0, 1).
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"bandable decay c must lie in (0, 1), got {c}")
    m = as_symmetric(a)
    idx = np.arange(m.shape[0])
    offsets = np.abs(idx[:, None] - idx[None, :])
    return bool(np.all(np.abs(m) <= np.power(c, offsets) + atol))

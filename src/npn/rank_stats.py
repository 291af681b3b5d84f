"""Rank statistics and Gaussianization.

Everything here operates on an n x D data matrix (rows are samples) and is
invariant to strictly increasing per-column transforms, which is the whole
point: ranks only see order. The module provides

* rank computation with an explicit tie policy,
* the standard normal quantile (probit, SciPy's ``ndtri`` behind a strict
  (0, 1) domain check) used to Gaussianize ranks,
* the rank-based scatter matrix of the Gaussianized data,
* Spearman and Kendall rank-correlation matrices, and
* the classical sine maps (Kruskal, 1958) taking Spearman's rho or
  Kendall's tau of a bivariate Gaussian back to its Pearson correlation.

Kendall's tau uses the tau-a normalization: the pair-sign sum is divided by
C(n, 2) and tied pairs contribute zero through sign(0) = 0.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateColumn, DomainError
from .matrix_core import as_symmetric

__all__ = [
    "TiePolicy",
    "ensure_data_matrix",
    "compute_ranks",
    "probit",
    "gaussianize",
    "sigma_g",
    "spearman_matrix",
    "kendall_matrix",
    "latent_from_rank_corr",
]


# Sign entries per block of the naive Kendall backend, and the largest
# integer below which every float32 partial sum of its GEMM is exact.
_SIGN_BLOCK = 1 << 14
_FLOAT32_EXACT = 1 << 24


class TiePolicy(enum.Enum):
    """How tied values are ranked.

    LITERAL assigns every member of a tied group the group's maximum rank,
    i.e. entry (i, j) is the count of samples k with X[k, j] <= X[i, j].
    MIDRANK assigns the average of the literal ranks in the group, which
    keeps Gaussianized columns mean-centered when atoms are present.
    """

    LITERAL = "literal"
    MIDRANK = "midrank"


def ensure_data_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a finite float64 matrix of shape (n, D).

    1-d input is treated as a single column. Raises DomainError on empty,
    more-than-2-d, or non-finite input.
    """
    m = np.asarray(x, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DomainError(f"expected a 2-d data matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DomainError(f"data matrix must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("data matrix contains non-finite entries")
    return m


def compute_ranks(x, policy: TiePolicy = TiePolicy.LITERAL) -> np.ndarray:
    """Columnwise ranks in [1, n].

    Under LITERAL the result is integer valued (dtype int64); under MIDRANK
    tied groups get half-integer averages (dtype float64). Columns with all
    entries distinct are permutations of {1, ..., n} under either policy.
    """
    m = ensure_data_matrix(x)
    n, d = m.shape
    if policy is TiePolicy.LITERAL:
        out = np.empty((n, d), dtype=np.int64)
    else:
        out = np.empty((n, d), dtype=np.float64)
    for j in range(d):
        col = m[:, j]
        srt = np.sort(col)
        upper = np.searchsorted(srt, col, side="right")
        if policy is TiePolicy.LITERAL:
            out[:, j] = upper
        else:
            lower = np.searchsorted(srt, col, side="left")
            out[:, j] = (lower + upper + 1) / 2.0
    return out


def probit(p):
    """Standard normal quantile function, SciPy's ``ndtri``.

    Accepts a scalar or ndarray of probabilities strictly inside (0, 1) and
    returns a Python float for a scalar, otherwise an array of the same
    shape.

    Raises
    ------
    DomainError
        If any input is outside the open interval (0, 1), NaN included.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("probit argument must lie strictly inside (0, 1)")
    out = ndtri(arr)
    return float(out) if arr.ndim == 0 else out


def gaussianize(x, policy: TiePolicy = TiePolicy.LITERAL) -> np.ndarray:
    """Map each entry to the normal quantile of its scaled rank.

    Entry (i, j) becomes probit(R[i, j] / (n + 1)). For a distinct-valued
    column the sorted output is the fixed symmetric grid
    {probit(i / (n + 1)) : i = 1..n}, so the column mean is zero.
    """
    ranks = compute_ranks(x, policy)
    n = ranks.shape[0]
    if n < 2:
        raise DomainError("gaussianization needs at least 2 samples")
    return probit(np.asarray(ranks, dtype=np.float64) / (n + 1.0))


def sigma_g(x, policy: TiePolicy = TiePolicy.LITERAL) -> np.ndarray:
    """Uncentered second-moment matrix of the Gaussianized data.

    Returns (1/n) Xg.T @ Xg where Xg = gaussianize(x). The divisor is n and
    no centering is applied; with distinct values every diagonal entry
    equals the grid second moment (1/n) sum_i probit(i/(n+1))^2, which is
    slightly below 1 and shrinks the matrix deterministically in n.
    """
    xg = gaussianize(x, policy)
    n = xg.shape[0]
    return as_symmetric(xg.T @ xg / n)


def spearman_matrix(x, policy: TiePolicy = TiePolicy.LITERAL) -> np.ndarray:
    """Spearman rank-correlation matrix (Pearson correlation of ranks).

    Raises
    ------
    DegenerateColumn
        If some column's ranks are constant, which makes the correlation
        undefined for that column.
    """
    ranks = np.asarray(compute_ranks(x, policy), dtype=np.float64)
    spread = np.ptp(ranks, axis=0)
    if np.any(spread == 0.0):
        j = int(np.flatnonzero(spread == 0.0)[0])
        raise DegenerateColumn(f"column {j} has constant ranks")
    if ranks.shape[1] == 1:
        return np.ones((1, 1))
    corr = np.corrcoef(ranks, rowvar=False)
    corr = as_symmetric(corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def kendall_matrix(x, backend: str = "auto") -> np.ndarray:
    """Kendall tau-a rank-correlation matrix.

    Entry (j, k) is the sum over unordered sample pairs of
    sign(X[a, j] - X[b, j]) * sign(X[a, k] - X[b, k]) divided by C(n, 2).
    Two backends produce identical values. ``naive`` takes a block of rows
    a at a time and forms, for every column at once, the float32 signs
    (X[a] > X[b]) - (X[a] < X[b]) against every later row b, then adds
    their Gram matrix S^T S to a float64 total. Every sum is an integer
    below 2^24, so the float32 GEMM is exact, and a block holds about 2^14
    signs whatever n is. ``mergesort`` counts discordant pairs in
    O(n log n) via Knight's inversion-counting construction.
    ``auto`` takes mergesort from n >= 100 D on, near where the merge
    path's O(D^2 n log n) overtakes the GEMM's O(n^2 D^2) on one core
    (measured crossovers: n of about 100 at D = 2, 300 at D = 4, 750 at
    D = 8 and 2,000 at D = 16).
    """
    m = ensure_data_matrix(x)
    n, d = m.shape
    if n < 2:
        raise DomainError("Kendall correlation needs at least 2 samples")
    if backend == "auto":
        backend = "mergesort" if n >= 100 * d else "naive"
    if backend not in ("naive", "mergesort"):
        raise DomainError(f"unknown Kendall backend {backend!r}")

    if backend == "naive":
        if n > _FLOAT32_EXACT:
            raise DomainError(f"naive Kendall backend is exact for n <= 2^24, got n={n}")
        rows = max(1, _SIGN_BLOCK // (n * d))
        total = np.zeros((d, d))
        for a in range(0, n, rows):
            lo, hi = m[a:a + rows, None, :], m[None, a:, :]
            signs = np.subtract(lo > hi, lo < hi, dtype=np.float32)
            # Keep each unordered pair once: row a + i against rows b > a + i.
            r = signs.shape[0]
            signs[:, :r] *= np.triu(np.ones((r, r), np.float32), 1)[:, :, None]
            signs = signs.reshape(-1, d)
            total += signs.T @ signs
        out = total / (n * (n - 1) // 2)
        np.fill_diagonal(out, 1.0)
    else:
        out = np.eye(d)
        for j in range(d):
            for k in range(j + 1, d):
                t = _kendall_pair_mergesort(m[:, j], m[:, k])
                out[j, k] = out[k, j] = t
    return out


def _tied_pairs(*keys: np.ndarray) -> int:
    """Number of unordered pairs equal in every key; keys sorted together."""
    same = np.logical_and.reduce([k[1:] == k[:-1] for k in keys])
    breaks = np.flatnonzero(~same) + 1
    runs = np.diff(np.concatenate(([0], breaks, [keys[0].size])))
    return int(np.sum(runs * (runs - 1) // 2))


def count_inversions(values: np.ndarray) -> int:
    """Strict inversions (i < j with v[i] > v[j]) by bottom-up merging.

    The array is padded with +inf to a power of two; each level merges
    adjacent sorted blocks with a stable argsort, and for every element
    coming from a right block the number of strictly larger left-block
    elements still ahead of it is accumulated. Stability makes equal values
    contribute nothing, which is exactly the strict-inversion count.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n < 2:
        return 0
    size = 1 << (n - 1).bit_length()
    buf = np.full(size, np.inf)
    buf[:n] = v
    total = 0
    width = 1
    while width < size:
        blocks = buf.reshape(-1, 2 * width)
        order = np.argsort(blocks, axis=1, kind="stable")
        from_left = order < width
        seen_left = np.cumsum(from_left, axis=1)
        total += int(np.sum(np.where(from_left, 0, width - seen_left)))
        buf = np.take_along_axis(blocks, order, axis=1).reshape(-1)
        width *= 2
    return total


def _kendall_pair_mergesort(x: np.ndarray, y: np.ndarray) -> float:
    """Tau-a for one column pair via Knight's O(n log n) construction."""
    n = x.size
    order = np.lexsort((y, x))
    xs = x[order]
    ys = y[order]
    n0 = n * (n - 1) // 2
    ties_x = _tied_pairs(xs)
    ties_y = _tied_pairs(np.sort(y))
    ties_xy = _tied_pairs(xs, ys)
    discordant = count_inversions(ys)
    concordant_minus_discordant = n0 - ties_x - ties_y + ties_xy - 2 * discordant
    return concordant_minus_discordant / n0


def latent_from_rank_corr(m, kind: str) -> np.ndarray:
    """Map a rank-correlation matrix to the implied Gaussian correlation.

    For a bivariate Gaussian with Pearson correlation s, Spearman's rho
    satisfies s = 2 sin(pi rho / 6) and Kendall's tau satisfies
    s = sin(pi tau / 2); both identities survive strictly increasing
    marginal transforms. This applies the chosen map entrywise and restores
    an exact unit diagonal.

    Parameters
    ----------
    m : array_like, shape (D, D)
        Symmetric matrix with entries in [-1, 1].
    kind : str
        ``"spearman"`` or ``"kendall"`` (case-insensitive).

    Raises
    ------
    DomainError
        If ``kind`` is unknown or some entry exceeds 1 in magnitude beyond
        1e-12 slack.
    """
    mat = as_symmetric(m)
    if np.max(np.abs(mat)) > 1.0 + 1e-12:
        raise DomainError("rank correlations must lie in [-1, 1]")
    mat = np.clip(mat, -1.0, 1.0)
    key = kind.lower()
    if key == "spearman":
        out = 2.0 * np.sin(np.pi * mat / 6.0)
    elif key == "kendall":
        out = np.sin(np.pi * mat / 2.0)
    else:
        raise DomainError(f"unknown rank correlation kind {kind!r}")
    out = np.clip(out, -1.0, 1.0)
    np.fill_diagonal(out, 1.0)
    return as_symmetric(out)

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
C(n, 2) and tied pairs contribute zero through sign(0) = 0. The sum is an
exact integer on both backends: a blocked float32 GEMM of pair signs for
small n, and for large n Knight's merge construction on integer rank keys,
with the column pairs batched as the rows of one array.
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
# Key entries (column pairs x n) per chunk of the mergesort Kendall backend.
_MERGE_BLOCK = 1 << 13


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

    1-d input is treated as a single column, and boolean input is read as
    0/1. Raises DomainError on empty, more-than-2-d, non-finite, complex,
    ragged, text or otherwise non-numeric input.
    """
    try:
        m = np.asarray(x)
        if m.dtype.kind not in "cUS":
            m = m.astype(np.float64, copy=False)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"data matrix must be numeric: {exc}") from exc
    if m.dtype.kind == "c":
        raise DomainError("data matrix must be real, got complex values")
    if m.dtype.kind in "US":
        raise DomainError("data matrix must be numeric, got text")
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
    signs whatever n is. ``mergesort`` ranks the columns once and counts
    each pair's discordant pairs in O(n log^2 n) with Knight's
    construction. Column pairs are the rows of an integer array, about
    2^13 entries at a time: one row sort orders the samples by column j,
    ties broken by column k, and the inversions of column k in that order
    come from a bottom-up merge whose every level is one more row sort.
    ``auto`` takes mergesort from n >= 64 + 4 D on, near the crossovers
    measured on one core: n of about 65 at D = 2 and 4, 85 at D = 8, 130
    at D = 16 and 170 at D = 25.
    """
    m = ensure_data_matrix(x)
    n, d = m.shape
    if n < 2:
        raise DomainError("Kendall correlation needs at least 2 samples")
    if backend == "auto":
        backend = "mergesort" if n >= 64 + 4 * d else "naive"
    if backend not in ("naive", "mergesort"):
        raise DomainError(f"unknown Kendall backend {backend!r}")

    total = np.zeros((d, d))
    if backend == "naive":
        if n > _FLOAT32_EXACT:
            raise DomainError(f"naive Kendall backend is exact for n <= 2^24, got n={n}")
        rows = max(1, _SIGN_BLOCK // (n * d))
        for a in range(0, n, rows):
            lo, hi = m[a:a + rows, None, :], m[None, a:, :]
            signs = np.subtract(lo > hi, lo < hi, dtype=np.float32)
            # Keep each unordered pair once: row a + i against rows b > a + i.
            r = signs.shape[0]
            signs[:, :r] *= np.triu(np.ones((r, r), np.float32), 1)[:, :, None]
            signs = signs.reshape(-1, d)
            total += signs.T @ signs
    else:
        j, k = np.triu_indices(d, 1)
        total[j, k] = total[k, j] = _pair_sign_sums(m, j, k)
    out = total / (n * (n - 1) // 2)
    np.fill_diagonal(out, 1.0)
    return out


def _pair_sign_sums(m: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Pair-sign sums of the column pairs (j, k) of a data matrix.

    Knight's construction: with the samples ordered by column j, ties
    broken by column k, the discordant pairs are the strict inversions of
    column k, and the sum is C(n, 2) - T_j - T_k + T_jk - 2 * discordant,
    where T counts the pairs tied in a column and T_jk those tied in both.
    The pairs are the rows of one integer array, a chunk of about
    ``_MERGE_BLOCK`` entries at a time. The integers are exact.
    """
    n = m.shape[0]
    keys, vb = _rank_keys(m)
    ties = np.array([np.sum(c * (c - 1) // 2) for c in map(np.bincount, keys)])
    rows = max(1, _MERGE_BLOCK // n)
    sums = np.empty(j.size, np.int64)
    for lo in range(0, j.size, rows):
        a, b = j[lo:lo + rows], k[lo:lo + rows]
        key = keys[a] << vb
        key |= keys[b]
        key.sort(axis=1)
        joint = _tied_pairs(key) if np.any((ties[a] > 0) & (ties[b] > 0)) else 0
        key &= (1 << vb) - 1
        sums[lo:lo + rows] = joint - 2 * _row_inversions(key, vb)
    return n * (n - 1) // 2 - ties[j] - ties[k] + sums


def _rank_keys(x) -> tuple[np.ndarray, int]:
    """Literal ranks minus one, one row per column, and their bit width vb.

    The keys of the composite sort and of the merge levels fit in
    2 vb + 1 bits, so they are int32 up to n = 2^15 and int64 beyond.
    """
    ranks = compute_ranks(x)
    n, d = ranks.shape
    vb = (n - 1).bit_length()
    keys = np.empty((d, n), np.int32 if 2 * vb + 1 < 32 else np.int64)
    np.subtract(ranks.T, 1, out=keys, casting="same_kind")
    return keys, vb


def _tied_pairs(rows: np.ndarray) -> np.ndarray:
    """Number of pairs of equal entries in each row of a row-sorted array."""
    n = rows.shape[1]
    idx = np.arange(n)
    # Each entry is tied with the entries between its run's start and itself.
    start = np.zeros(rows.shape, np.intp)
    start[:, 1:] = np.where(rows[:, 1:] != rows[:, :-1], idx[1:], 0)
    np.maximum.accumulate(start, axis=1, out=start)
    return np.sum(idx - start, axis=1)


def _row_inversions(v: np.ndarray, vb: int) -> np.ndarray:
    """Strict inversions (a < b with v[a] > v[b]) in each row of ``v``.

    ``v`` holds integers in [0, 2^vb) and is overwritten. The merge runs
    bottom up. At level l the key of slot p is block | value | half: the
    block is p with its low l + 1 bits cleared, and the half is bit l of
    p. One in-place row sort merges the two sorted halves of every block,
    a left-half value ahead of an equal right-half one. Each right-half
    value then lands ahead of its old slot by the number of strictly
    larger left-half values, so the level's inversions are the right-half
    slot sum before the sort minus the sum after it. Moving bit l + 1 of
    the block down to the half bit gives the next level's keys.
    """
    n = v.shape[1]
    pos = np.arange(n, dtype=v.dtype)
    key = v
    key <<= 1
    key |= ((pos & ~1) << (vb + 1)) | (pos & 1)
    # Per slot: how often it held a right-half value before a sort, less after.
    moved = (pos & 1) + np.zeros_like(key)
    levels = (n - 1).bit_length()
    for level in range(levels):
        key.sort(axis=1)
        moved -= key & 1
        if level + 1 < levels:
            bit = vb + 2 + level
            half = key >> bit
            half &= 1
            key &= ~((1 << bit) | 1)
            key |= half
            moved += half
    return moved @ np.arange(n, dtype=np.int64)


def count_inversions(values: np.ndarray) -> int:
    """Strict inversions (i < j with v[i] > v[j]) of a finite 1-d array.

    The one-row case of the ``mergesort`` Kendall backend: the values are
    ranked, then merged bottom up by :func:`_row_inversions`.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < 2:
        return 0
    keys, vb = _rank_keys(v)
    return int(_row_inversions(keys, vb)[0])


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

"""Rank statistics and Gaussianization.

Everything here operates on an n x D data matrix (rows are samples) and is
invariant to strictly increasing per-column transforms, which is the whole
point: ranks only see order. The module provides

* rank computation with an explicit tie policy,
* the standard normal quantile (probit, SciPy's ``ndtri`` behind a strict
  (0, 1) domain check) for callers outside the module,
* Gaussianized ranks and their rank-based scatter matrix,
* Spearman and Kendall rank-correlation matrices, and
* the classical sine maps (Kruskal, 1958) taking Spearman's rho or
  Kendall's tau of a bivariate Gaussian back to its Pearson correlation.

One writer, :func:`_put_ranks`, ranks the columns for every estimator:
the ranks, the Gaussianized ranks, Spearman's float ranks and Kendall's
integer keys. It takes one block of columns (:func:`_column_blocks`) at a
time, so it holds at most one block's sort beside its result, and one scan
of the runs of equal sorted values gives the ranks and every tie count.

The matrix builders also take a batch of trials side by side: the private
``_*_stack`` forms treat each run of d columns as one trial's data and
return a (T, d, d) stack, with the column-wise passes made once over all
the columns and the per-trial products as one stacked call. Each trial's
matrix has the bits of the public function on its columns alone, and the
public functions are the batch of one.

Kendall's tau uses the tau-a normalization: the pair-sign sum is divided by
C(n, 2) and tied pairs contribute zero through sign(0) = 0. The sum is an
exact integer from either private kernel: a blocked float32 GEMM of pair
signs, taken from rank differences, for small n, and for large n Knight's
merge construction on integer rank keys, with the column pairs batched as
the rows of one array. Each merge level of that construction stands alone:
the levels inside blocks of 16 slots are one pass of comparisons, and each
level above is one sort inside its own blocks, on a 16-bit key up to
n = 2^15. The merge kernel's chunks of pairs hold about 2^17 key entries
between them on one worker or many; on a large input they run on a
thread pool, one worker per available core, and the result does not
depend on the core count.
"""

from __future__ import annotations

import enum
import os
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateColumn, DomainError
from .matrix_core import _real_array, _symmetric_stack, as_symmetric

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


# Sign entries per block of the quadratic Kendall kernel, and the largest
# integer below which every float32 partial sum of its GEMM is exact. At the
# merge kernel's 2^17, the GEMM on 1,500 x 8 would hold 1.04 MB, over the
# 1 MB its test pins.
_SIGN_BLOCK = 1 << 14
_FLOAT32_EXACT = 1 << 24
# From _THREAD_WORK key entries (column pairs x n) on, the merge Kendall
# kernel maps its chunks over a thread pool. On one worker or many, the
# chunks in flight hold about _FLIGHT_BLOCK key entries between them.
_THREAD_WORK = 1 << 20
_FLIGHT_BLOCK = 1 << 17
# The merge kernel counts the inversions inside aligned blocks of this many
# slots by direct comparison, and sorts inside the blocks of each level above.
# At most 16, so that a block's count, C(16, 2) at most, fits a byte.
_COMPARE_BLOCK = 16
# Entries per block of whole columns in every pass that sorts the columns.
# It sets the rank layer's peak beside its result, which the tests pin, and
# with it the peak of ``npn estimate``.
_COLUMN_BLOCK = 1 << 16


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
    m = _real_array(x, "data matrix")
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
    Beside the result, only one block of columns (:func:`_column_blocks`)
    is sorted and ranked at a time.
    """
    m = ensure_data_matrix(x)
    dtype = np.int64 if policy is TiePolicy.LITERAL else np.float64
    return _put_ranks(m, policy, np.empty(m.shape, dtype))


def _column_blocks(n: int, d: int) -> list[slice]:
    """Blocks of whole columns of an n x d matrix, about ``_COLUMN_BLOCK`` entries each.

    A block holds at least one column, and a matrix of at most
    ``_COLUMN_BLOCK`` entries is one block. Every column's result depends
    on that column alone, so the blocks leave its bits as they are.
    """
    cols = max(1, _COLUMN_BLOCK // n)
    return [slice(lo, lo + cols) for lo in range(0, d, cols)]


def _put_ranks(m: np.ndarray, policy: TiePolicy, out: np.ndarray) -> np.ndarray:
    """Write the ranks of ``m``'s columns into ``out``, one block of columns at a time."""
    for cols in _column_blocks(*m.shape):
        order, ranks = _sorted_ranks(m[:, cols], policy)
        # Scattered through the transposed view, whose rows are the block's columns.
        np.put_along_axis(out[:, cols].T, order, ranks, axis=1)
        del order, ranks
    return out


def _sorted_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort order and sorted values of every column of ``m``, as (D, n) rows.

    One default (unstable) argsort over the rows of ``m.T``: tied values
    share every rank and every neighbor distance, so their order is moot.
    """
    rows = m.T
    order = np.argsort(rows, axis=1)
    return order, np.take_along_axis(rows, order, axis=1)


def _sorted_ranks(m: np.ndarray, policy: TiePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Sort order of every column of ``m`` and the ranks in that order, as (D, n) rows.

    A literal rank is the run end of :func:`_run_ends`, and a midrank is
    (start + end + 1) / 2, where the run's first index ``start`` is n less
    the run end in the reversed row. Each is an exact integer sum before the
    halving, so both equal the sort-and-search ranks bit for bit.
    """
    order, s = _sorted_rows(m)
    n = s.shape[1]
    differs = s[:, 1:] != s[:, :-1]
    # Freed before any rank array, so that the ranks add nothing to the peak.
    del s
    ends = _run_ends(differs)
    if policy is TiePolicy.LITERAL:
        return order, ends
    flipped = _run_ends(differs[:, ::-1])
    del differs
    mid = flipped[:, ::-1].astype(np.float64)
    del flipped
    np.subtract(n + 1, mid, out=mid)
    mid += ends
    mid /= 2.0
    return order, mid


def _run_ends(differs: np.ndarray) -> np.ndarray:
    """For each entry of a row-sorted array, one past the index of the last entry equal to it.

    The rows enter as ``differs = rows[:, 1:] != rows[:, :-1]``, so that a
    caller can free them first, and may be sorted either way. The ends are
    int32 up to n = 2^31 - 1. A run of c entries adds C(c, 2) more to the
    row's sum of ends than to the sum of its indices plus one, so a row's
    tied pairs are that sum less n (n + 1) / 2.
    """
    n = differs.shape[1] + 1
    pos = np.arange(1, n + 1, dtype=np.int32 if n < 2**31 else np.int64)
    ends = np.full((differs.shape[0], n), n, pos.dtype)
    np.copyto(ends[:, :-1], pos[:-1], where=differs)
    flipped = ends[:, ::-1]
    np.minimum.accumulate(flipped, axis=1, out=flipped)
    return ends


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
    {probit(i / (n + 1)) : i = 1..n}, so the column mean is zero. The ranks
    are written into the one float64 result (:func:`_put_ranks`), then
    scaled and mapped through SciPy's ``ndtri`` in place. The scaled ranks
    lie in [1 / (n + 1), n / (n + 1)] by construction, so they skip
    :func:`probit`'s domain check.

    Raises
    ------
    DegenerateColumn
        If some column's ranks are constant: its Gaussianized column is a
        constant that no latent Gaussian column has.
    """
    m = ensure_data_matrix(x)
    n = m.shape[0]
    if n < 2:
        raise DomainError("gaussianization needs at least 2 samples")
    out = _put_ranks(m, policy, np.empty(m.shape))
    _check_spread(out)
    out /= n + 1.0
    return ndtri(out, out=out)


def _trial_stack(m: np.ndarray, d: int) -> np.ndarray:
    """An n x (T d) matrix's trials as a (T, n, d) view: trial t holds columns t d to t d + d - 1.

    The batched estimators take the T trials' samples side by side, so the
    column-wise passes run once over all of them and the per-trial
    products run as one stacked call. Each slice of the stack is the
    trial's matrix with a wider row stride. The stacked products and
    reductions over it give the bits of the trial alone, except a BLAS dot
    product, whose sum order follows the stride (:func:`_sigma_g_stack`).
    """
    return m.reshape(m.shape[0], -1, d).transpose(1, 0, 2)


def _fill_diagonal(a: np.ndarray, value: float) -> None:
    """Set the diagonal of every matrix of a stack (..., D, D) to ``value``."""
    i = np.arange(a.shape[-1])
    a[..., i, i] = value


def sigma_g(x, policy: TiePolicy = TiePolicy.LITERAL) -> np.ndarray:
    """Uncentered second-moment matrix of the Gaussianized data.

    Returns (1/n) Xg.T @ Xg where Xg = gaussianize(x). The divisor is n and
    no centering is applied; with distinct values every diagonal entry
    equals the grid second moment (1/n) sum_i probit(i/(n+1))^2, which is
    slightly below 1 and shrinks the matrix deterministically in n.
    Raises DegenerateColumn on a column with constant ranks, as
    :func:`gaussianize` does.
    """
    m = ensure_data_matrix(x)
    return _sigma_g_stack(m, m.shape[1], policy)[0]


def _sigma_g_stack(m: np.ndarray, d: int, policy: TiePolicy) -> np.ndarray:
    """:func:`sigma_g` of each trial of d columns of ``m``, as a (T, d, d) stack."""
    xg = _trial_stack(gaussianize(m, policy), d)
    if d == 1:
        # A one-column Gram is a BLAS dot product, whose sum order follows the stride.
        xg = xg.copy()
    return _symmetric_stack(np.matmul(xg.mT, xg) / xg.shape[1])


def spearman_matrix(x, policy: TiePolicy = TiePolicy.LITERAL) -> np.ndarray:
    """Spearman rank-correlation matrix (Pearson correlation of ranks).

    The float64 ranks go straight into one array, one block of columns
    (:func:`_column_blocks`) at a time, and ``np.corrcoef``'s own
    arithmetic runs on it in place, so the result has its bits without its
    two copies of the ranks.

    Raises
    ------
    DegenerateColumn
        If some column's ranks are constant, which makes the correlation
        undefined for that column.
    """
    m = ensure_data_matrix(x)
    return _spearman_stack(m, m.shape[1], policy)[0]


def _spearman_stack(m: np.ndarray, d: int, policy: TiePolicy) -> np.ndarray:
    """:func:`spearman_matrix` of each trial of d columns of ``m``, as a (T, d, d) stack."""
    n = m.shape[0]
    ranks = _put_ranks(m, policy, np.empty(m.shape))
    _check_spread(ranks)
    if d == 1:
        return np.ones((m.shape[1] // d, 1, 1))
    # np.corrcoef(ranks, rowvar=False) step by step, on the columns as rows.
    xt = ranks.T
    xt -= xt.mean(axis=1)[:, None]
    r = _trial_stack(ranks, d)
    corr = np.matmul(r.mT, r)
    corr *= 1 / (n - 1)
    stddev = np.sqrt(np.diagonal(corr, axis1=1, axis2=2))
    corr /= stddev[:, :, None]
    corr /= stddev[:, None, :]
    np.clip(corr, -1, 1, out=corr)
    corr = _symmetric_stack(corr)
    _fill_diagonal(corr, 1.0)
    return corr


def _check_spread(ranks: np.ndarray) -> None:
    """Raise DegenerateColumn on the first column of ``ranks`` whose entries are all equal."""
    spread = np.ptp(ranks, axis=0)
    if np.any(spread == 0.0):
        j = int(np.flatnonzero(spread == 0.0)[0])
        raise DegenerateColumn(f"column {j} has constant ranks")


def kendall_matrix(x) -> np.ndarray:
    """Kendall tau-a rank-correlation matrix.

    Entry (j, k) is the sum over unordered sample pairs of
    sign(X[a, j] - X[b, j]) * sign(X[a, k] - X[b, k]) divided by C(n, 2).
    Two private kernels give the same exact integer sums: the quadratic
    :func:`_sign_gram` below n = 64 + 4 D, and Knight's merge construction
    :func:`_pair_sign_sums` from there on. Measured on one core, the merge
    kernel is the faster in one call from n of about 76 at D = 2, 70 at
    D = 4, 84 at D = 8, 90 at D = 16 and 100 at D = 25, and in a batch of
    16 Monte Carlo trials from n of about 40 at D = 2 and 4, 48 at D = 8
    and 90 at D = 16; at D = 20 to 25 the batch's two kernels stay within
    20% of each other from n = 96 to 170, and at D = 32 the GEMM wins up
    to n of about 190. No one threshold in n and D fits both kinds of
    call: 64 + 4 D lies at or above every crossover, and near the batch's
    at D = 25 to 32. On a large input (column pairs times n of 2^20 or
    more) the merge kernel uses every core the process may run on, and its
    result is the same bits on any number of them.

    A column of equal values ties every pair, so its tau-a with every
    other column is 0, which is well defined: unlike
    :func:`spearman_matrix` and :func:`gaussianize`, this raises no
    DegenerateColumn.
    """
    m = ensure_data_matrix(x)
    return _kendall_stack(m, m.shape[1])[0]


def _kendall_stack(m: np.ndarray, d: int) -> np.ndarray:
    """:func:`kendall_matrix` of each trial of d columns of ``m``, as a (T, d, d) stack.

    The kernel switch reads the trial's d, and the merge kernel takes the
    within-trial column pairs of every trial as one pair list, going to its
    thread pool only where one trial alone would.
    """
    n = m.shape[0]
    if n < 2:
        raise DomainError("Kendall correlation needs at least 2 samples")
    trials = m.shape[1] // d
    if n >= 64 + 4 * d:
        j, k = np.triu_indices(d, 1)
        first = np.arange(0, m.shape[1], d)[:, None]
        total = np.zeros((trials, d, d))
        sums = _pair_sign_sums(m, (j + first).ravel(), (k + first).ravel(), trials)
        total[:, j, k] = total[:, k, j] = sums.reshape(trials, -1)
    else:
        total = _sign_gram(m, d)
    out = total / (n * (n - 1) // 2)
    _fill_diagonal(out, 1.0)
    return out


def _sign_gram(m: np.ndarray, d: int) -> np.ndarray:
    """Pair-sign sums of every column pair of each trial of d columns of ``m``, as (T, d, d) float64.

    The signs come from the literal ranks (:func:`_put_ranks`), held as
    float32: a rank difference is an exact integer, so clipping it to
    [-1, 1] gives sign(X[a] - X[b]). A block of rows a at a time forms
    them, for every column at once, against every later row b, then adds
    each trial's Gram matrix S^T S, one stacked GEMM, to a float64 total.
    Every sum is an integer below 2^24, so the float32 GEMM is exact, and
    a block holds about ``_SIGN_BLOCK`` signs, or one row's when that is
    more. Entry (j, j) is C(n, 2) less the pairs tied in column j.
    """
    n, cols = m.shape
    if n > _FLOAT32_EXACT:
        raise DomainError(f"the pair-sign GEMM is exact for n <= 2^24, got n={n}")
    ranks = _put_ranks(m, TiePolicy.LITERAL, np.empty(m.shape, np.float32))
    rows = max(1, _SIGN_BLOCK // (n * cols))
    # Keep each unordered pair once: row a + i against rows b > a + i.
    later = np.triu(np.ones((min(rows, n),) * 2, np.float32), 1)[:, :, None]
    total = np.zeros((cols // d, d, d))
    for a in range(0, n, rows):
        signs = np.subtract(ranks[a:a + rows, None, :], ranks[None, a:, :])
        np.clip(signs, -1.0, 1.0, out=signs)
        r = signs.shape[0]
        signs[:, :r] *= later[:r, :r]
        signs = _trial_stack(signs.reshape(-1, cols), d)
        total += np.matmul(signs.mT, signs)
    return total


def _pair_sign_sums(m: np.ndarray, j: np.ndarray, k: np.ndarray, trials: int = 1) -> np.ndarray:
    """Pair-sign sums of the column pairs (j, k) of a data matrix.

    Knight's construction: with the samples ordered by column j, ties
    broken by column k, the discordant pairs are the strict inversions of
    column k, and the sum is C(n, 2) - T_j - T_k + T_jk - 2 * discordant,
    where T counts the pairs tied in a column and T_jk those tied in both.
    The keys are the literal ranks of :func:`_put_ranks`, held in the
    merge levels' key dtype (:func:`_key_dtype`). A row's sum of
    ends (:func:`_run_ends`) does not depend on the order of its entries,
    so T_j is the sum of column j's ranks less n (n + 1) / 2, and T_jk
    comes from one run scan of the sorted composite key. The pairs are the
    rows of one integer array, one chunk (:func:`_merge_chunks`) at a time,
    and :func:`_row_inversions` counts the inversions of every row of the
    chunk. The integers are exact. With j = k the sum is C(n, 2) - T_j.

    The keys, the tie counts and the merge levels' constants
    (:func:`_merge_levels`) are built once and only read by the chunks, so
    on a large input the chunks run on a thread pool, one worker per
    available core; NumPy's sorts and ufunc loops release the GIL. One
    worker runs the chunks in a plain loop, since a pool of one costs about
    140 us a call. The pairs may come from ``trials`` trials of equal size,
    and the pool runs only where one trial's pairs alone would take it.
    Every pair's sum is an exact integer of its own chunk, so the result
    does not depend on the worker count, and the pool is closed before
    returning.
    """
    n, d = m.shape
    untied = n * (n + 1) // 2
    # Ranks minus one, in vb bits. The composite key a << vb | b takes 2 vb
    # bits: int32 beside uint16 keys, up to n = 2^15, and int64 beyond.
    vb = (n - 1).bit_length()
    keys = np.empty((d, n), _key_dtype(n))
    wide = np.promote_types(keys.dtype, np.int32)
    _put_ranks(m, TiePolicy.LITERAL, keys.T)
    ties = keys.sum(axis=1, dtype=np.int64) - untied
    keys -= 1
    levels = _merge_levels(n)
    workers, rows = _merge_chunks(j.size, n, trials)
    sums = np.empty(j.size, np.int64)

    def chunk(lo: int) -> None:
        a, b = j[lo:lo + rows], k[lo:lo + rows]
        key = keys[a].astype(wide)
        key <<= vb
        key |= keys[b]
        key.sort(axis=1)
        joint = 0
        if np.any((ties[a] > 0) & (ties[b] > 0)):
            joint = _run_ends(key[:, 1:] != key[:, :-1]).sum(axis=1, dtype=np.int64) - untied
        key &= (1 << vb) - 1
        sums[lo:lo + rows] = joint - 2 * _row_inversions(key, levels)

    starts = range(0, j.size, rows)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(chunk, starts))
    else:
        for lo in starts:
            chunk(lo)
    return n * (n - 1) // 2 - ties[j] - ties[k] + sums


def _merge_chunks(pairs: int, n: int, trials: int = 1) -> tuple[int, int]:
    """Workers and column pairs per chunk for the merge kernel on ``pairs`` rows of n keys.

    On one worker or many, the chunks in flight hold about
    ``_FLIGHT_BLOCK`` entries between them, or a row of n per worker when
    that is more. Below ``_THREAD_WORK`` key entries in one of the
    ``trials`` trials the pairs come from, or on one core, one worker takes
    every chunk; above it every available core gets a worker. A chunk's
    NumPy calls cost the same for one pair as for many, so a lone worker's
    chunks are no smaller.
    """
    cores = _available_cores() if pairs // trials * n >= _THREAD_WORK else 1
    workers = min(cores, max(2, _FLIGHT_BLOCK // n))
    return workers, max(1, _FLIGHT_BLOCK // (workers * n))


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _MergeLevels(NamedTuple):
    """The merge levels that :func:`_row_inversions` sorts, for rows of n entries.

    A sorted level's blocks hold ``2 << bit`` slots for each of ``bits``,
    bit ``bit`` of a slot marks their right half, and ``right`` is the sum
    of the right-half slots over every sorted level. ``slots`` is
    ``np.arange(n)`` in the keys' dtype (:func:`_key_dtype`), padded with
    zeros to a whole number of uint64 words, so that each level's half
    marks are a shift of its words.
    """

    bits: list[int]
    right: int
    slots: np.ndarray


def _key_dtype(n: int) -> type:
    """The dtype of the merge levels' keys 2 v + 1 for rows of n entries: uint16 up to n = 2^15."""
    return np.uint16 if n <= 1 << 15 else np.uint32


def _merge_levels(n: int) -> _MergeLevels:
    """:class:`_MergeLevels` of rows of n entries: the levels above ``_COMPARE_BLOCK`` slots."""
    slots = np.zeros(-(-n // 4) * 4, _key_dtype(n))
    slots[:n] = np.arange(n)
    bits = list(range(_COMPARE_BLOCK.bit_length() - 1, (n - 1).bit_length()))
    right = sum(int(slots[slots & 1 << bit != 0].sum(dtype=np.int64)) for bit in bits)
    return _MergeLevels(bits, right, slots)


def _row_inversions(v: np.ndarray, levels: _MergeLevels) -> np.ndarray:
    """Strict inversions (a < b with v[a] > v[b]) in each row of ``v``.

    ``v`` holds integers below 2^15 where n <= 2^15 and below 2^31 beyond,
    and is only read; ``levels`` is :func:`_merge_levels` of its rows, so
    concurrent calls share it. A pair of slots a < b is counted at the
    merge level of the highest bit where a and b differ: there they lie in
    the left and the right half of one aligned block of that level. No
    level needs another's output. The levels inside blocks of
    ``_COMPARE_BLOCK`` slots are one pass of comparisons
    (:func:`_block_inversions`). Each level above is one sort inside that
    level's blocks, the rows of one view, on the key v << 1 | half, where
    half marks the right half. A left-half value lands ahead of an equal
    right-half one, and each right-half value lands ahead of its slot by
    the number of strictly larger left-half values, whatever order the
    halves were in. So the level's inversions are the sum of its
    right-half slots less the sum of the slots that hold right-half keys
    once sorted. A last partial block is sorted alone, and only when it
    has a right half.

    Beside ``v`` the call holds three arrays of its shape in the keys'
    dtype (:func:`_key_dtype`): v << 1, one level's keys, and the count of
    sorted levels whose right-half keys landed in each slot. Each pass over
    them, the sorts aside, runs on their uint64 words.
    """
    inversions = _block_inversions(v)
    if not levels.bits:
        return inversions
    rows, n = v.shape
    shifted = np.zeros((rows, levels.slots.size), levels.slots.dtype)
    np.left_shift(v, 1, out=shifted[:, :n], casting="unsafe")
    key = np.empty_like(shifted)
    landed = np.zeros_like(shifted)
    shifted_words, key_words = shifted.view(np.uint64), key.view(np.uint64)
    landed_words = landed.view(np.uint64)
    slot_words = levels.slots.view(np.uint64)
    low_bits = np.ones(8 // key.itemsize, key.dtype).view(np.uint64)
    for bit in levels.bits:
        # Shifting a word moves each lane's bit down to its own lowest bit.
        np.right_shift(slot_words, bit, out=key_words)
        key_words &= low_bits
        key_words |= shifted_words
        block = 2 << bit
        full = n - n % block
        key[:, :full].reshape(rows, -1, block).sort(axis=2)
        if n - full > block // 2:
            key[:, full:n].sort(axis=1)
        key_words &= low_bits
        landed_words += key_words
    # Freed first, so that the weighted sum's buffers add nothing to the peak.
    del shifted, shifted_words, key, key_words
    # landed is below 32 and slots below n, so int64 sums stay exact.
    return inversions + levels.right - np.einsum("ij,j->i", landed, levels.slots, dtype=np.int64)


def _block_inversions(v: np.ndarray) -> np.ndarray:
    """Strict inversions inside each aligned block of ``_COMPARE_BLOCK`` slots of each row of ``v``.

    These are the merge levels of blocks of 2 up to ``_COMPARE_BLOCK``
    slots, counted by comparing every pair of slots in a block: slot i of
    every block of every row is one contiguous row of a copy, and the
    pairs of slots s apart are one comparison. The copy is padded to a
    whole number of uint64 words with blocks of the largest value of its
    dtype, which no value exceeds, so the padding adds no inversions. The
    comparisons' bytes are added up eight at a time in uint64 words; a
    block's count, at most C(16, 2), fits its byte.
    """
    b = _COMPARE_BLOCK
    rows, n = v.shape
    full = n - n % b
    x = np.empty((b, rows, -(-n // (8 * b)) * 8), _key_dtype(n))
    x[:, :, :full // b] = v[:, :full].reshape(rows, -1, b).transpose(2, 0, 1)
    x[:, :, full // b:] = np.iinfo(x.dtype).max
    if full < n:
        x[:n - full, :, full // b] = v[:, full:].T
    greater = np.empty((b - 1, *x.shape[1:]), bool)
    words = greater.view(np.uint64)
    count = np.zeros(words.shape, np.uint64)
    for s in range(1, b):
        np.greater(x[:b - s], x[s:], out=greater[:b - s])
        np.add(count[:b - s], words[:b - s], out=count[:b - s])
    return np.add.reduce(count).view(np.uint8).sum(axis=1, dtype=np.int64)


def latent_from_rank_corr(m, kind: str) -> np.ndarray:
    """Map a rank-correlation matrix to the implied Gaussian correlation.

    For a bivariate Gaussian with Pearson correlation s, Spearman's rho
    satisfies s = 2 sin(pi rho / 6) and Kendall's tau satisfies
    s = sin(pi tau / 2); both identities survive strictly increasing
    marginal transforms. This applies the chosen map entrywise to the
    symmetrized input and restores an exact unit diagonal, so the result
    is exactly symmetric.

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
    return _sine_map(np.clip(mat, -1.0, 1.0), kind.lower())


def _sine_map(mat: np.ndarray, kind: str) -> np.ndarray:
    """:func:`latent_from_rank_corr` of an exactly symmetric matrix in [-1, 1], unchecked.

    ``estimate_mi`` hands it the stack of matrices (..., D, D) the Spearman
    or Kendall builder has just made, which are both already.
    """
    if kind == "spearman":
        out = 2.0 * np.sin(np.pi * mat / 6.0)
    elif kind == "kendall":
        out = np.sin(np.pi * mat / 2.0)
    else:
        raise DomainError(f"unknown rank correlation kind {kind!r}")
    np.clip(out, -1.0, 1.0, out=out)
    _fill_diagonal(out, 1.0)
    return out

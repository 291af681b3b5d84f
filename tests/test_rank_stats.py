"""Tests for ranks, the normal quantile kernel, and rank correlations.

The probit reference values below were frozen from a high-precision
bisection against an mpmath normal CDF; the grid second moments were
computed from those same quantiles. Rank-correlation cases are checked
against direct O(n^2) counting.
"""

import concurrent.futures
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from npn import rank_stats
from npn.errors import DegenerateColumn, DomainError
from npn.matrix_core import as_symmetric
from npn.rank_stats import (
    _FLIGHT_BLOCK,
    TiePolicy,
    _merge_chunks,
    _pair_sign_sums,
    _sign_gram,
    _sine_map,
    compute_ranks,
    ensure_data_matrix,
    gaussianize,
    kendall_matrix,
    latent_from_rank_corr,
    probit,
    sigma_g,
    spearman_matrix,
)

# value -> quantile, frozen from the bisection oracle
PROBIT_TABLE = {
    0.5: 0.0,
    0.975: 1.9599639845400542,
    0.25: -0.67448975019608174,
    0.75: 0.67448975019608174,
    0.9: 1.2815515655446005,
    0.6: 0.2533471031357998,
    0.3: -0.52440051270804078,
    1e-4: -3.7190164854556806,
    1e-9: -5.9978070150076869,
    1e-12: -7.0344838253011319,
}


def brute_force_ranks(col):
    return np.array([np.sum(col <= v) for v in col], dtype=np.int64)


def search_ranks(x, policy):
    """The ranks of one sort and binary search per column: the kernel's oracle."""
    m = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    out = np.empty(m.shape, np.int64 if policy is TiePolicy.LITERAL else np.float64)
    for j in range(m.shape[1]):
        srt = np.sort(m[:, j])
        upper = np.searchsorted(srt, m[:, j], side="right")
        if policy is TiePolicy.LITERAL:
            out[:, j] = upper
        else:
            out[:, j] = (np.searchsorted(srt, m[:, j], side="left") + upper + 1) / 2.0
    return out


@st.composite
def rank_inputs(draw):
    """Small matrices with ties, signed zeros and scales up to 1e+-300, or a 1-d column."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    cells = st.one_of(st.integers(-2, 2).map(float), st.sampled_from([0.0, -0.0]),
                      st.floats(-3.0, 3.0))
    scale = draw(st.sampled_from([1.0, 1e300, -1e300, 1e-300]))
    x = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d) * scale
    return x[:, 0] if d == 1 and draw(st.booleans()) else x


def brute_force_kendall(x, y):
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
    return total / (n * (n - 1) / 2)


def kernel_sums(x):
    """Both Kendall kernels' pair-sign sums over every column pair j <= k."""
    j, k = np.triu_indices(x.shape[1])
    return _sign_gram(x, x.shape[1])[0, j, k], _pair_sign_sums(x, j, k)


def assert_kernels_agree(x):
    gemm, merge = kernel_sums(x)
    assert np.array_equal(gemm, merge)


class TestEnsureDataMatrix:
    def test_promotes_vector_to_column(self):
        out = ensure_data_matrix([1.0, 2.0, 3.0])
        assert out.shape == (3, 1)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ensure_data_matrix(np.array([[1.0], [np.nan]]))

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            ensure_data_matrix(np.array([[np.inf], [0.0]]))

    def test_rejects_three_dimensional(self):
        with pytest.raises(DomainError):
            ensure_data_matrix(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("x", [[["a", "b"]], [[1.0, 2.0], [3.0]], np.ones((3, 2)) + 1j],
                             ids=["strings", "ragged", "complex"])
    def test_rejects_non_real_input(self, x):
        with pytest.raises(DomainError):
            ensure_data_matrix(x)

    @pytest.mark.parametrize("x", [[["1.5", "2"]], np.array([[b"1", b"2"]])],
                             ids=["str", "bytes"])
    def test_rejects_numeric_text(self, x):
        with pytest.raises(DomainError):
            ensure_data_matrix(x)

    @pytest.mark.parametrize("cell", ["1.5", b"1.5", np.str_("1.5")], ids=["str", "bytes", "np.str_"])
    def test_rejects_text_in_an_object_array(self, cell):
        x = np.array([[cell, 2.0]], dtype=object)
        with pytest.raises(DomainError, match="got text"):
            ensure_data_matrix(x)

    def test_object_array_of_numbers_reads_as_float(self):
        out = ensure_data_matrix(np.array([[1, 2.5], [True, np.float32(0.5)]], dtype=object))
        np.testing.assert_array_equal(out, [[1.0, 2.5], [1.0, 0.5]])

    def test_boolean_input_reads_as_zero_one(self):
        out = ensure_data_matrix(np.array([[True, False], [False, True]]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])

    def test_float64_input_is_not_copied(self):
        x = np.ones((4, 3))
        assert ensure_data_matrix(x) is x


class TestComputeRanks:
    def test_distinct_values(self):
        out = compute_ranks(np.array([0.3, -1.2, 2.5]))
        np.testing.assert_array_equal(out[:, 0], [2, 1, 3])

    def test_ties_take_max_rank(self):
        out = compute_ranks(np.array([5.0, 5.0, 1.0]))
        np.testing.assert_array_equal(out[:, 0], [3, 3, 1])

    def test_ties_midrank_policy(self):
        out = compute_ranks(np.array([5.0, 5.0, 1.0]), policy=TiePolicy.MIDRANK)
        np.testing.assert_allclose(out[:, 0], [2.5, 2.5, 1.0], rtol=0, atol=0)

    def test_midrank_equals_literal_without_ties(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 3))
        lit = compute_ranks(x)
        mid = compute_ranks(x, policy=TiePolicy.MIDRANK)
        np.testing.assert_array_equal(lit.astype(float), mid)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60))
    @settings(max_examples=80, deadline=None)
    def test_matches_counting_definition(self, seed, n):
        """Each rank equals the number of entries at or below that entry."""
        rng = np.random.default_rng(seed)
        # integer-valued columns exercise the tie path heavily
        x = np.column_stack(
            [rng.standard_normal(n), rng.integers(0, 5, n).astype(float)]
        )
        out = compute_ranks(x)
        for j in range(x.shape[1]):
            np.testing.assert_array_equal(out[:, j], brute_force_ranks(x[:, j]))

    def test_distinct_column_ranks_are_a_permutation(self):
        rng = np.random.default_rng(5)
        out = compute_ranks(rng.standard_normal(25))
        assert sorted(out[:, 0]) == list(range(1, 26))

    @given(rank_inputs(), st.sampled_from(TiePolicy))
    @settings(max_examples=300, deadline=None)
    def test_equals_sort_and_search_ranks(self, x, policy):
        out = compute_ranks(x, policy)
        want = search_ranks(x, policy)
        assert out.dtype == want.dtype
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_peak_memory_stays_below_three_and_a_half_inputs(self, policy):
        # the input is traced by neither side; order, ranks and the result are
        x = np.round(np.random.default_rng(27).standard_normal((20_000, 25)), 2)
        tracemalloc.start()
        try:
            compute_ranks(x, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * x.nbytes


class TestProbit:
    def test_median_is_zero(self):
        assert probit(0.5) == 0.0

    @pytest.mark.parametrize("p,expected", sorted(PROBIT_TABLE.items()))
    def test_reference_values(self, p, expected):
        assert probit(p) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        grid = np.linspace(1e-6, 0.5, 200)
        np.testing.assert_allclose(probit(grid), -probit(1.0 - grid), atol=1e-9)

    def test_accuracy_against_independent_implementation(self):
        # probit is scipy's ndtri behind a domain check; this pins that
        # across the central range and the deep tails
        grid = np.concatenate(
            [
                np.geomspace(1e-12, 0.4, 300),
                np.linspace(0.4, 0.6, 100),
                1.0 - np.geomspace(1e-12, 0.4, 300),
            ]
        )
        np.testing.assert_allclose(probit(grid), special.ndtri(grid), atol=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.2, np.nan, np.inf])
    def test_rejects_closed_endpoints(self, p):
        with pytest.raises(DomainError):
            probit(p)

    def test_vector_input_keeps_shape(self):
        out = probit(np.array([[0.2, 0.5], [0.7, 0.9]]))
        assert out.shape == (2, 2)

    def test_scalar_input_gives_python_float(self):
        assert isinstance(probit(0.25), float)


class TestGaussianize:
    def test_three_point_column(self):
        # ranks map to quantiles of 1/4, 2/4, 3/4
        out = gaussianize(np.array([0.3, -1.2, 2.5]))
        q = 0.67448975019608174
        np.testing.assert_allclose(out[:, 0], [0.0, -q, q], rtol=0, atol=1e-9)

    def test_rejects_single_row(self):
        with pytest.raises(DomainError):
            gaussianize(np.array([1.0]))

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_constant_column_raises(self, policy):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        for fn in (gaussianize, sigma_g):
            with pytest.raises(DegenerateColumn, match="column 1"):
                fn(x, policy)

    def test_distinct_column_sums_to_zero(self):
        rng = np.random.default_rng(8)
        out = gaussianize(rng.standard_normal((41, 2)))
        np.testing.assert_allclose(out.sum(axis=0), 0.0, atol=1e-10)

    def test_invariant_under_strictly_increasing_map(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 3))
        np.testing.assert_array_equal(gaussianize(x), gaussianize(np.exp(x)))

    @pytest.mark.parametrize("block", [None, 300, 900], ids=["whole", "one-column", "three-columns"])
    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_equals_probit_of_scaled_ranks(self, policy, block, monkeypatch):
        # the in-place ndtri of the written ranks against the domain-checked probit
        rng = np.random.default_rng(30)
        n = 300
        x = rng.standard_normal((n, 7))
        x[:, 1::2] = np.round(x[:, 1::2], 1)  # ties
        if block is not None:
            monkeypatch.setattr(rank_stats, "_COLUMN_BLOCK", block)
        want = probit(compute_ranks(x, policy) / (n + 1))
        assert np.array_equal(gaussianize(x, policy), want)
        assert np.array_equal(sigma_g(x, policy), as_symmetric(want.T @ want / n))


class TestSigmaG:
    # second moment of the n-point quantile grid, frozen from the oracle
    GRID_SECOND_MOMENT = {3: 0.30329094874638183, 5: 0.44857219716681061, 10: 0.62163750876663992}

    @pytest.mark.parametrize("n", sorted(GRID_SECOND_MOMENT))
    def test_single_column_grid_moment(self, n):
        x = np.arange(n, dtype=float)
        out = sigma_g(x)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(self.GRID_SECOND_MOMENT[n], abs=1e-9)

    def test_duplicated_column_saturates(self):
        rng = np.random.default_rng(10)
        col = rng.standard_normal(50)
        out = sigma_g(np.column_stack([col, col]))
        assert out[0, 1] == pytest.approx(out[0, 0], abs=1e-12)

    def test_diagonal_below_one(self):
        rng = np.random.default_rng(12)
        out = sigma_g(rng.standard_normal((200, 4)))
        assert np.all(np.diag(out) < 1.0)

    def test_independent_columns_concentrate_near_zero(self):
        # with n = 10^4 observations nearly all off-diagonal entries should
        # land within 3/sqrt(n) of zero
        rng = np.random.default_rng(13)
        n = 10_000
        hits = []
        for _ in range(10):
            out = sigma_g(rng.standard_normal((n, 8)))
            off = out[np.triu_indices(8, k=1)]
            hits.extend(np.abs(off) <= 3.0 / math.sqrt(n))
        assert np.mean(hits) >= 0.99


class TestSpearman:
    def test_one_column(self):
        np.testing.assert_array_equal(spearman_matrix(np.arange(5.0)), [[1.0]])

    def test_identical_columns(self):
        rng = np.random.default_rng(14)
        col = rng.standard_normal(30)
        out = spearman_matrix(np.column_stack([col, col]))
        assert out[0, 1] == 1.0

    def test_reversed_columns(self):
        col = np.arange(20.0)
        out = spearman_matrix(np.column_stack([col, col[::-1]]))
        assert out[0, 1] == pytest.approx(-1.0, abs=1e-14)

    def test_matches_rank_difference_formula(self):
        # classical identity: rho = 1 - 6 sum d^2 / (n (n^2 - 1)), valid
        # without ties
        rng = np.random.default_rng(15)
        n = 50
        for _ in range(25):
            x = rng.standard_normal((n, 4))
            got = spearman_matrix(x)
            ranks = compute_ranks(x)
            for a in range(4):
                for b in range(a + 1, 4):
                    d2 = np.sum((ranks[:, a] - ranks[:, b]) ** 2)
                    want = 1.0 - 6.0 * d2 / (n * (n * n - 1))
                    assert abs(got[a, b] - want) <= 1e-12

    def test_constant_column_raises(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(DegenerateColumn):
            spearman_matrix(x)

    @given(rank_inputs(), st.sampled_from(TiePolicy))
    @settings(max_examples=300, deadline=None)
    def test_equals_corrcoef_of_the_float_ranks(self, x, policy):
        # the in-place arithmetic is np.corrcoef's own, so every bit agrees
        ranks = compute_ranks(x, policy).astype(float)
        if np.any(np.ptp(ranks, axis=0) == 0.0):
            with pytest.raises(DegenerateColumn):
                spearman_matrix(x, policy)
            return
        want = np.ones((1, 1))
        if ranks.shape[1] > 1:
            want = as_symmetric(np.corrcoef(ranks, rowvar=False))
            np.fill_diagonal(want, 1.0)
        out = spearman_matrix(x, policy)
        assert out.shape == want.shape
        assert (out == want).all() and out.tobytes() == want.tobytes()

    def test_single_row_change_moves_entries_little(self):
        # swapping one observation can shift each entry by at most 18/n
        rng = np.random.default_rng(16)
        n = 50
        for _ in range(100):
            x = rng.standard_normal((n, 3))
            before = spearman_matrix(x)
            y = x.copy()
            y[0] = rng.standard_normal(3)
            after = spearman_matrix(y)
            assert np.max(np.abs(after - before)) <= 18.0 / n + 1e-12


class TestKendall:
    def test_monotone_pair(self):
        x = np.column_stack([np.arange(10.0), np.arange(10.0) ** 3])
        out = kendall_matrix(x)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_small_case_with_one_discordant_pair(self):
        x = np.column_stack([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        out = kendall_matrix(x)
        assert out[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_tied_values_keep_full_denominator(self):
        # tied pairs contribute zero but still count toward n choose 2
        x = np.column_stack([[1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
        out = kendall_matrix(x)
        assert out[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_kernels_match_counting(self):
        rng = np.random.default_rng(17)
        pairs = 30 * 29 // 2
        for _ in range(10):
            x = np.round(rng.standard_normal((30, 3)), 1)
            want = [brute_force_kendall(x[:, a], x[:, b]) for a, b in zip(*np.triu_indices(3))]
            for sums in kernel_sums(x):
                np.testing.assert_allclose(sums / pairs, want, rtol=0, atol=1e-13)

    def test_kernels_agree_on_larger_inputs(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            x = rng.standard_normal((300, 4))
            x[:, 2] = np.round(x[:, 2], 1)
            assert_kernels_agree(x)

    @pytest.mark.parametrize(
        ("n_values", "d"),
        [
            ((100,), 25), ((199, 200), 2), ((799, 800), 8),
            ((71, 72), 2), ((95, 96), 8), ((163, 164), 25),
        ],
    )
    def test_kernels_bit_identical_on_tied_data(self, n_values, d):
        # n on both sides of the kernel switch: the first three cases straddle
        # the former n = 100 D, the last three today's n = 64 + 4 D
        rng = np.random.default_rng(19)
        pairs = np.triu_indices(d, 1)
        for n in n_values:
            x = np.round(rng.standard_normal((n, d)), 1)
            assert_kernels_agree(x)
            want = np.zeros((d, d))
            want[pairs] = want[pairs[::-1]] = _pair_sign_sums(x, *pairs) / (n * (n - 1) // 2)
            np.fill_diagonal(want, 1.0)
            assert np.array_equal(kendall_matrix(x), want)

    @pytest.mark.parametrize(("n", "d"), [(_FLIGHT_BLOCK // 128 + 1, 17), (_FLIGHT_BLOCK // 48, 11)])
    def test_mergesort_with_a_partial_last_chunk(self, n, d):
        pairs = d * (d - 1) // 2
        workers, rows = _merge_chunks(pairs, n)
        assert workers == 1 and rows > 1 and pairs % rows != 0
        x = np.round(np.random.default_rng(22).standard_normal((n, d)), 1)
        j, k = np.triu_indices(d, 1)
        assert np.array_equal(_sign_gram(x, x.shape[1])[0, j, k], _pair_sign_sums(x, j, k))

    @pytest.mark.parametrize(("m", "copies"), [(4096, 8), (3641, 9)])
    def test_mergesort_on_both_sides_of_the_key_width_switch(self, m, copies):
        # n = 2^15 keeps uint16 keys, n = 2^15 + 1 takes uint32. Repeating every
        # row c times multiplies the pair-sign sum by c^2, since copies of one
        # row tie in both columns, so the naive sum of the m distinct rows
        # gives the exact sum of all n = c m rows.
        rng = np.random.default_rng(23)
        small = np.round(rng.standard_normal((m, 2)), 1)
        small_sum = _sign_gram(small, 2)[0, 0, 1]
        big = rng.permutation(np.repeat(small, copies, axis=0))
        j, k = np.array([0]), np.array([1])
        assert _pair_sign_sums(big, j, k)[0] == copies * copies * small_sum

    @pytest.mark.parametrize(
        "x",
        [
            np.column_stack([np.round(np.random.default_rng(24).standard_normal((300, 2)), 1), np.full(300, 2.5)]),
            np.array([[1.0, 2.0, 5.0], [2.0, 1.0, 5.0]]),
            np.array([[3.0, 3.0], [3.0, 1.0]]),
            np.random.default_rng(25).standard_normal((50, 1)),
        ],
        ids=["constant-column", "n=2", "n=2-tied", "d=1"],
    )
    def test_mergesort_edge_shapes(self, x):
        assert_kernels_agree(x)

    def test_mergesort_memory_stays_bounded(self):
        # one chunk of column pairs at a time, not all D (D - 1) / 2 of them
        x = np.random.default_rng(26).standard_normal((20_000, 4))
        pairs = np.triu_indices(4, 1)
        tracemalloc.start()
        try:
            _pair_sign_sums(x, *pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_gemm_kernel_memory_stays_bounded(self):
        # one block of signs at a time, not D sign matrices of n x n
        x = np.random.default_rng(20).standard_normal((1500, 8))
        tracemalloc.start()
        try:
            _sign_gram(x, x.shape[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def force_cores(monkeypatch, cores, pool=True):
    """Give the merge kernel ``cores`` cores, and with ``pool`` send every input to the pool."""
    monkeypatch.setattr(rank_stats, "_available_cores", lambda: cores)
    if pool:
        monkeypatch.setattr(rank_stats, "_THREAD_WORK", 0)


class TestThreadedMergeKernel:
    """The merge kernel's chunks on a thread pool give the serial loop's sums bit for bit."""

    @staticmethod
    def assert_pool_matches_serial(monkeypatch, x, workers):
        j, k = np.triu_indices(x.shape[1], 1)
        force_cores(monkeypatch, 1, pool=False)
        serial = _pair_sign_sums(x, j, k)
        pools = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                pools.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        force_cores(monkeypatch, workers)
        threads = threading.active_count()
        threaded = _pair_sign_sums(x, j, k)
        assert pools == [_merge_chunks(j.size, x.shape[0])[0]] and pools[0] > 1
        # the pool is closed before the kernel returns
        assert threading.active_count() == threads
        assert threaded.dtype == serial.dtype and np.array_equal(threaded, serial)

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_untied(self, monkeypatch, workers):
        x = np.random.default_rng(40).standard_normal((600, 7))
        self.assert_pool_matches_serial(monkeypatch, x, workers)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_tied_in_both_columns(self, monkeypatch, workers):
        # every pair has ties in both columns, so every chunk takes the joint-ties scan
        x = np.round(np.random.default_rng(41).standard_normal((600, 7)), 1)
        self.assert_pool_matches_serial(monkeypatch, x, workers)

    def test_partial_last_chunk(self, monkeypatch):
        n, d, workers = 1000, 13, 2
        pairs = d * (d - 1) // 2
        force_cores(monkeypatch, workers)
        _, rows = _merge_chunks(pairs, n)
        assert rows > 1 and pairs % rows != 0
        x = np.round(np.random.default_rng(42).standard_normal((n, d)), 2)
        self.assert_pool_matches_serial(monkeypatch, x, workers)

    def test_one_pair_is_one_chunk(self, monkeypatch):
        x = np.random.default_rng(43).standard_normal((500, 2))
        self.assert_pool_matches_serial(monkeypatch, x, 4)

    def test_int64_keys(self, monkeypatch):
        # n > 2^15 takes uint32 keys and an int64 composite key
        x = np.round(np.random.default_rng(44).standard_normal((2**15 + 1, 3)), 2)
        self.assert_pool_matches_serial(monkeypatch, x, 2)

    def test_many_workers_with_a_short_switch_interval(self, monkeypatch):
        # sixteen workers on 33 chunks, on any machine, switching threads every microsecond
        x = np.round(np.random.default_rng(45).standard_normal((4000, 12)), 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_pool_matches_serial(monkeypatch, x, 16)
        finally:
            sys.setswitchinterval(interval)

    def test_small_inputs_stay_serial(self):
        # Monte Carlo shapes: 28 pairs x n = 1,024 at D = 8
        assert _merge_chunks(28, 1024) == (1, _FLIGHT_BLOCK // 1024)
        assert 28 * 1024 < rank_stats._THREAD_WORK

    def test_one_core_takes_the_budget_of_the_chunks_in_flight(self, monkeypatch):
        # one worker's chunks hold many pairs at n = 20,000, not one pair each
        force_cores(monkeypatch, 1, pool=False)
        assert _merge_chunks(300, 20_000) == (1, _FLIGHT_BLOCK // 20_000)
        assert _FLIGHT_BLOCK // 20_000 > 1

    @pytest.mark.parametrize("cores", [2, 4, 8, 64])
    def test_memory_in_flight_does_not_grow_with_the_cores(self, monkeypatch, cores):
        force_cores(monkeypatch, cores)
        for n in (500, 20_000, 100_000):
            workers, rows = _merge_chunks(300, n)
            assert 2 <= workers <= cores
            assert workers * rows * n <= max(_FLIGHT_BLOCK, 2 * n)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_peak_memory_holds_one_matrix_beside_the_input(self, monkeypatch, workers):
        force_cores(monkeypatch, workers)
        TestColumnBlocks().test_peak_memory_holds_one_matrix_beside_the_input(kendall_matrix, 1.0)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_mergesort_memory_stays_bounded(self, monkeypatch, workers):
        force_cores(monkeypatch, workers)
        TestKendall().test_mergesort_memory_stays_bounded()


class TestMergesortPairSignSum:
    """The merge path's pair-sign sum of two columns, ties in both, against direct counting."""

    @staticmethod
    def assert_matches_quadratic_count(x):
        n = len(x)
        want = sum(np.sign(x[a, 0] - x[b, 0]) * np.sign(x[a, 1] - x[b, 1])
                   for a in range(n) for b in range(a + 1, n))
        assert _pair_sign_sums(x, np.array([0]), np.array([1]))[0] == want

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=120))
    @settings(max_examples=120, deadline=None)
    def test_matches_quadratic_count(self, pairs):
        # the first row repeated, so both columns and the pair have ties
        self.assert_matches_quadratic_count(np.asarray(pairs + pairs[:1], dtype=float))

    def test_sorted_input_is_concordant_but_for_ties(self):
        self.assert_matches_quadratic_count(
            np.column_stack([np.arange(100.0) // 3, np.arange(100.0) // 7]))

    def test_reversed_input_is_discordant_but_for_ties(self):
        self.assert_matches_quadratic_count(
            np.column_stack([np.arange(100.0) // 3, np.arange(100.0)[::-1] // 7]))


def quadratic_inversions(v):
    """Strict inversions (a < b with v[a] > v[b]) of each row of ``v``, pair by pair."""
    a, b = np.triu_indices(v.shape[1], 1)
    return (v[:, a] > v[:, b]).sum(axis=1)


def small_alphabet_inversions(v):
    """Strict inversions of each row of small integers in [0, 8), from running counts of each value."""
    seen = np.cumsum(v[:, :, None] == np.arange(8), axis=1) - (v[:, :, None] == np.arange(8))
    larger = np.arange(8) > v[:, :, None]
    return (seen * larger).sum(axis=(1, 2))


def row_kinds(n, rng):
    """Rows of n keys: a permutation, ties, sorted and reversed with ties, and one value."""
    few = rng.integers(0, max(1, n // 4), n)
    return np.stack([rng.permutation(n), rng.integers(0, 3, n), np.sort(few),
                     np.sort(few)[::-1], np.full(n, n - 1)])


# n at 2^k - 1, 2^k and 2^k + 1 around the smallest blocks (2 and 4 slots),
# the last compared and the first sorted blocks (16 and 32) and the next
# sorted levels (64 and 128); then a last partial block at the sorted levels
# of 32 and 64 slots without a right half (96 + 10, 64 + 20) and with one
# (96 + 20, 64 + 40).
MERGE_LENGTHS = [2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 63, 64, 65, 106, 84, 116, 104, 127, 128, 129]


class TestRowInversions:
    """The merge levels each stand alone: one comparison pass below 32 slots, one sort per level above."""

    @pytest.mark.parametrize("n", MERGE_LENGTHS)
    def test_matches_quadratic_count(self, n):
        v = row_kinds(n, np.random.default_rng(n))
        levels = rank_stats._merge_levels(n)
        assert np.array_equal(rank_stats._row_inversions(v.astype(np.int32), levels),
                              quadratic_inversions(v))

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_matches_quadratic_count_on_any_row(self, row):
        v = np.array([row, row[::-1]])
        levels = rank_stats._merge_levels(len(row))
        assert np.array_equal(rank_stats._row_inversions(v, levels), quadratic_inversions(v))

    def test_sorted_levels_start_above_the_compared_blocks(self):
        # every level of a row of at most 16 slots is compared
        assert rank_stats._merge_levels(16).bits == []
        assert rank_stats._merge_levels(17).bits == [4]
        # blocks of 32 up to 32,768 slots
        assert rank_stats._merge_levels(20_000).bits == list(range(4, 15))

    def test_key_width(self):
        # value << 1 | half: uint16 up to n = 2^15, uint32 beyond
        assert rank_stats._merge_levels(2**15).slots.dtype == np.uint16
        assert rank_stats._merge_levels(2**15 + 1).slots.dtype == np.uint32

    def test_wide_keys(self):
        n = 2**15 + 1
        rng = np.random.default_rng(27)
        v = np.stack([rng.integers(0, 8, n), np.sort(rng.integers(0, 8, n))[::-1]])
        got = rank_stats._row_inversions(v, rank_stats._merge_levels(n))
        assert np.array_equal(got, small_alphabet_inversions(v))

    def test_wide_keys_through_the_pair_sign_sum(self):
        # column 0 sorted and untied, so the sum is C(n, 2) - T_1 - 2 * inversions of column 1
        n = 2**15 + 1
        col = np.random.default_rng(28).integers(0, 8, n)
        x = np.column_stack([np.arange(n, dtype=float), col])
        counts = np.bincount(col)
        want = n * (n - 1) // 2 - (counts * (counts - 1) // 2).sum()
        want -= 2 * small_alphabet_inversions(col[None])[0]
        assert _pair_sign_sums(x, np.array([0]), np.array([1]))[0] == want


class TestColumnBlocks:
    @pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (2**16, 1), (2**16 + 1, 2), (1000, 66)])
    def test_blocks_cover_every_column_once(self, n, d):
        blocks = rank_stats._column_blocks(n, d)
        assert np.concatenate([np.arange(d)[cols] for cols in blocks]).tolist() == list(range(d))
        sizes = [np.arange(d)[cols].size * n for cols in blocks]
        assert all(size <= max(n, rank_stats._COLUMN_BLOCK) for size in sizes)
        assert len(blocks) == 1 or n * d > rank_stats._COLUMN_BLOCK

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_blocks_leave_every_bit(self, policy, monkeypatch):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((300, 7))
        x[:, 1::2] = np.round(x[:, 1::2], 1)  # ties
        fns = (
            lambda: compute_ranks(x, policy),
            lambda: gaussianize(x, policy),
            lambda: sigma_g(x, policy),
            lambda: spearman_matrix(x, policy),
            lambda: kendall_matrix(x),  # n >= 64 + 4 D: the merge kernel
        )
        whole = [fn() for fn in fns]
        # one column per block, then three columns and a partial last block
        for size in (300, 900):
            monkeypatch.setattr(rank_stats, "_COLUMN_BLOCK", size)
            for fn, want in zip(fns, whole):
                out = fn()
                assert out.dtype == want.dtype and out.flags.c_contiguous
                assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "fn, bound",
        [
            (lambda x: gaussianize(x, TiePolicy.LITERAL), 1.4),
            (lambda x: gaussianize(x, TiePolicy.MIDRANK), 1.4),
            (lambda x: spearman_matrix(x, TiePolicy.LITERAL), 1.75),
            (lambda x: spearman_matrix(x, TiePolicy.MIDRANK), 1.75),
            (kendall_matrix, 1.0),
        ],
        ids=["gaussianize-literal", "gaussianize-midrank", "spearman-literal", "spearman-midrank",
             "kendall"],
    )
    def test_peak_memory_holds_one_matrix_beside_the_input(self, fn, bound):
        # one n x D float64 array (Kendall: uint16 keys) and one block of
        # columns at a time; the input is traced by neither side. gaussianize
        # ranks, scales and maps its result in place, so it holds one block's
        # sort beside the result, which has the input's size.
        x = np.round(np.random.default_rng(28).standard_normal((20_000, 25)), 2)
        tracemalloc.start()
        try:
            fn(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * x.nbytes


class TestLatentFromRankCorr:
    def test_spearman_fixed_points(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(latent_from_rank_corr(m, "spearman"), m)

    def test_spearman_half(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = latent_from_rank_corr(m, "spearman")
        # 2 sin(pi/12)
        assert out[0, 1] == pytest.approx(0.51763809020504152, abs=1e-15)

    def test_kendall_half(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = latent_from_rank_corr(m, "kendall")
        assert out[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_endpoints_map_to_endpoints(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for kind in ("spearman", "kendall"):
            out = latent_from_rank_corr(m, kind)
            assert out[0, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_rejects_out_of_range_entries(self):
        m = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(DomainError):
            latent_from_rank_corr(m, "spearman")

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            latent_from_rank_corr(np.eye(2), "pearson")

    def test_output_stays_in_range(self):
        rng = np.random.default_rng(20)
        m = np.clip(rng.uniform(-1, 1, (6, 6)), -1, 1)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        for kind in ("spearman", "kendall"):
            out = latent_from_rank_corr(m, kind)
            assert np.all(np.abs(out) <= 1.0)
            np.testing.assert_array_equal(np.diag(out), np.ones(6))

    @pytest.mark.parametrize(
        ("build", "kind"), [(spearman_matrix, "spearman"), (kendall_matrix, "kendall")])
    def test_unchecked_map_of_a_built_matrix_is_bit_identical(self, build, kind):
        x = np.round(np.random.default_rng(21).standard_normal((300, 6)), 1)
        m = build(x)
        assert _sine_map(m, kind).tobytes() == latent_from_rank_corr(m, kind).tobytes()


# strictly monotone transforms that preserve distinctness of the grid below
MONOTONE_MAPS = [np.exp, lambda v: v**3, np.tanh, lambda v: 1 / (1 + np.exp(-v)), special.ndtr]


@st.composite
def distinct_columns(draw):
    # values spaced at least 1e-3 apart in [-6, 6] so every transform above
    # stays strictly increasing in floating point
    grid = draw(
        st.lists(st.integers(-6000, 6000), min_size=4, max_size=50, unique=True)
    )
    return np.asarray(grid, dtype=float) / 1000.0


@given(distinct_columns(), st.sampled_from(range(len(MONOTONE_MAPS))))
@settings(max_examples=100, deadline=None)
def test_rank_statistics_invariant_under_monotone_maps(col, which):
    """Spearman and Kendall depend on the data only through its ranks."""
    transform = MONOTONE_MAPS[which]
    x = np.column_stack([col, np.sin(np.arange(len(col)) * 2.7)])
    y = np.column_stack([transform(col), x[:, 1]])
    np.testing.assert_array_equal(spearman_matrix(x), spearman_matrix(y))
    np.testing.assert_array_equal(kendall_matrix(x), kendall_matrix(y))


@given(distinct_columns())
@settings(max_examples=60, deadline=None)
def test_sign_flip_negates_rank_correlations(col):
    """Negating one column negates its correlations with the others."""
    x = np.column_stack([col, np.cos(np.arange(len(col)))])
    y = np.column_stack([-col, x[:, 1]])
    a = spearman_matrix(x)
    b = spearman_matrix(y)
    np.testing.assert_allclose(b[0, 1], -a[0, 1], rtol=0, atol=1e-13)
    at = kendall_matrix(x)
    bt = kendall_matrix(y)
    np.testing.assert_allclose(bt[0, 1], -at[0, 1], rtol=0, atol=1e-13)

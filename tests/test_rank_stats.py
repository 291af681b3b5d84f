"""Tests for ranks, the normal quantile kernel, and rank correlations.

The probit reference values below were frozen from a high-precision
bisection against an mpmath normal CDF; the grid second moments were
computed from those same quantiles. Rank-correlation cases are checked
against direct O(n^2) counting.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from npn.errors import DegenerateColumn, DomainError
from npn.rank_stats import (
    _MERGE_BLOCK,
    TiePolicy,
    compute_ranks,
    count_inversions,
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


def brute_force_kendall(x, y):
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
    return total / (n * (n - 1) / 2)


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

    def test_distinct_column_sums_to_zero(self):
        rng = np.random.default_rng(8)
        out = gaussianize(rng.standard_normal((41, 2)))
        np.testing.assert_allclose(out.sum(axis=0), 0.0, atol=1e-10)

    def test_invariant_under_strictly_increasing_map(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 3))
        np.testing.assert_array_equal(gaussianize(x), gaussianize(np.exp(x)))


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

    @pytest.mark.parametrize("backend", ["naive", "mergesort"])
    def test_backends_match_counting(self, backend):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = np.round(rng.standard_normal((30, 3)), 1)
            out = kendall_matrix(x, backend=backend)
            for a in range(3):
                for b in range(a + 1, 3):
                    want = brute_force_kendall(x[:, a], x[:, b])
                    assert out[a, b] == pytest.approx(want, abs=1e-13)

    def test_backends_agree_on_larger_inputs(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            x = rng.standard_normal((300, 4))
            x[:, 2] = np.round(x[:, 2], 1)
            fast = kendall_matrix(x, backend="mergesort")
            slow = kendall_matrix(x, backend="naive")
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_unknown_backend_rejected(self):
        with pytest.raises(DomainError):
            kendall_matrix(np.random.default_rng(0).standard_normal((10, 2)), backend="quadratic")

    @pytest.mark.parametrize(
        ("n_values", "d"),
        [
            ((100,), 25), ((199, 200), 2), ((799, 800), 8),
            ((71, 72), 2), ((95, 96), 8), ((163, 164), 25),
        ],
    )
    def test_backends_bit_identical_on_tied_data(self, n_values, d):
        # n on both sides of auto's switch: the first three cases straddle the
        # former n = 100 D, the last three today's n = 64 + 4 D
        rng = np.random.default_rng(19)
        for n in n_values:
            x = np.round(rng.standard_normal((n, d)), 1)
            naive = kendall_matrix(x, backend="naive")
            assert np.array_equal(naive, kendall_matrix(x, backend="mergesort"))
            assert np.array_equal(naive, kendall_matrix(x))

    @pytest.mark.parametrize(("n", "d"), [(_MERGE_BLOCK // 8 + 1, 6), (_MERGE_BLOCK // 3, 5)])
    def test_mergesort_with_a_partial_last_chunk(self, n, d):
        pairs, rows = d * (d - 1) // 2, _MERGE_BLOCK // n
        assert rows > 1 and pairs % rows != 0
        x = np.round(np.random.default_rng(22).standard_normal((n, d)), 1)
        assert np.array_equal(kendall_matrix(x, backend="naive"), kendall_matrix(x, backend="mergesort"))

    @pytest.mark.parametrize(("m", "copies"), [(4096, 8), (3641, 9)])
    def test_mergesort_on_both_sides_of_the_key_width_switch(self, m, copies):
        # n = 2^15 keeps int32 keys, n = 2^15 + 1 takes int64. Repeating every
        # row c times multiplies the pair-sign sum by c^2, since copies of one
        # row tie in both columns, so the naive sum of the m distinct rows
        # gives the exact sum of all n = c m rows.
        rng = np.random.default_rng(23)
        small = np.round(rng.standard_normal((m, 2)), 1)
        small_sum = round(kendall_matrix(small, backend="naive")[0, 1] * (m * (m - 1) // 2))
        big = rng.permutation(np.repeat(small, copies, axis=0))
        n = m * copies
        want = copies * copies * small_sum / (n * (n - 1) // 2)
        assert kendall_matrix(big, backend="mergesort")[0, 1] == want

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
        assert np.array_equal(kendall_matrix(x, backend="naive"), kendall_matrix(x, backend="mergesort"))

    def test_mergesort_memory_stays_bounded(self):
        # one chunk of column pairs at a time, not all D (D - 1) / 2 of them
        x = np.random.default_rng(26).standard_normal((20_000, 4))
        tracemalloc.start()
        try:
            kendall_matrix(x, backend="mergesort")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_naive_backend_memory_stays_bounded(self):
        # one block of signs at a time, not D sign matrices of n x n
        x = np.random.default_rng(20).standard_normal((1500, 8))
        tracemalloc.start()
        try:
            kendall_matrix(x, backend="naive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCountInversions:
    @given(st.lists(st.integers(-20, 20), min_size=0, max_size=120))
    @settings(max_examples=120, deadline=None)
    def test_matches_quadratic_count(self, values):
        arr = np.asarray(values, dtype=float)
        want = sum(
            1
            for i in range(len(arr))
            for j in range(i + 1, len(arr))
            if arr[i] > arr[j]
        )
        assert count_inversions(arr) == want

    def test_sorted_input_has_none(self):
        assert count_inversions(np.arange(100.0)) == 0

    def test_reversed_input_has_all(self):
        assert count_inversions(np.arange(100.0)[::-1]) == 100 * 99 // 2


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

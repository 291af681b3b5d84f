"""Tests for the mutual-information and entropy estimators.

Closed-form targets: for a bivariate normal with correlation s the mutual
information is -log(1 - s^2)/2, the entropy of a standard normal is
log(2*pi*e)/2 per dimension, and the digamma values were frozen from
mpmath. The scatter bias term has the exact expectation
E[log det R_hat] = log det P + sum_j (psi((n-j)/2) - psi((n-1)/2)),
which the Monte Carlo tests below exercise directly.
"""

import concurrent.futures
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from npn import estimators, matrix_core, rank_stats
from npn.errors import (
    DegenerateColumn,
    DomainError,
    InsufficientSamples,
    NotPositiveDefinite,
    NpnError,
    SingularScatter,
)
from npn.estimators import (
    EstimatorConfig,
    EstimatorKind,
    MiEstimate,
    _estimate_batch,
    _kl_entropy,
    _marginal_entropies,
    digamma,
    entropy_npn,
    estimate_mi,
    knn_entropy,
    mi_from_latent,
    mi_gaussian_plugin,
    mi_knn,
    plugin_logdet_bias,
    true_mi,
)
from npn.matrix_core import cholesky_logdet, sym_eigen
from npn.rank_stats import TiePolicy

HALF_LOG_2PIE = 1.4189385332046727
MI_AT_06 = 0.22314355131420976  # -log(1 - 0.36)/2
MI_AT_09 = 0.83036560341082545  # -log(1 - 0.81)/2


def corr2(s):
    return np.array([[1.0, s], [s, 1.0]])


def sample_corr(rng, s, n):
    chol = np.linalg.cholesky(corr2(s))
    return rng.standard_normal((n, 2)) @ chol.T


class TestTrueMi:
    def test_independence_gives_zero(self):
        assert true_mi(np.eye(4)) == 0.0

    def test_bivariate_closed_form(self):
        assert true_mi(corr2(0.6)) == pytest.approx(MI_AT_06, abs=1e-14)

    def test_block_diagonal_is_additive(self):
        rng = np.random.default_rng(0)
        a = corr2(0.4)
        b = corr2(-0.7)
        full = np.zeros((4, 4))
        full[:2, :2] = a
        full[2:, 2:] = b
        assert true_mi(full) == pytest.approx(true_mi(a) + true_mi(b), abs=1e-12)

    def test_rejects_non_correlation(self):
        with pytest.raises(DomainError):
            true_mi(np.diag([2.0, 1.0]))

    def test_singular_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            true_mi(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_never_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = rng.standard_normal((5, 8))
            w = g @ g.T
            scale = 1.0 / np.sqrt(np.diag(w))
            sigma = w * scale[:, None] * scale[None, :]
            sigma = (sigma + sigma.T) / 2
            np.fill_diagonal(sigma, 1.0)
            assert true_mi(sigma) >= 0.0


class TestMiFromLatent:
    def test_identity_input(self):
        est = mi_from_latent(np.eye(3), 1e-3)
        assert est.value == 0.0
        assert est.clamped == 0
        assert est.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert not est.is_infinite

    def test_clamped_negative_eigenvalue(self):
        # eigenvalues 1 and -0.2; the floor replaces -0.2 so the estimate is
        # -log(1e-3)/2
        theta = 0.4
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        a = q @ np.diag([1.0, -0.2]) @ q.T
        est = mi_from_latent(a, 1e-3)
        assert est.value == pytest.approx(3.4538776394910685, abs=1e-12)
        assert est.clamped == 1
        assert est.lambda_min == pytest.approx(-0.2, abs=1e-12)

    def test_no_projection_matches_cholesky(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = rng.standard_normal((4, 6))
            w = g @ g.T
            scale = 1.0 / np.sqrt(np.diag(w))
            sigma = w * scale[:, None] * scale[None, :]
            sigma = (sigma + sigma.T) / 2
            np.fill_diagonal(sigma, 1.0)
            est = mi_from_latent(sigma, 0.0)
            assert est.value == pytest.approx(-0.5 * cholesky_logdet(sigma), abs=1e-9)

    def test_no_projection_singular_is_infinite(self):
        est = mi_from_latent(np.ones((2, 2)), 0.0)
        assert est.is_infinite
        assert est.value == math.inf

    def test_no_projection_roundoff_singular_is_infinite(self):
        # rank 2 in three dimensions: the smallest eigenvalue is a positive
        # roundoff here, at or below matrix_rank's tolerance, and gave 20.34
        g = np.random.default_rng(0).standard_normal((3, 2))
        shat = g @ g.T
        est = mi_from_latent(shat, 0.0)
        assert est.value == math.inf
        assert 0.0 < est.lambda_min <= 3 * np.finfo(np.float64).eps * np.linalg.norm(shat, 2)

    def test_no_projection_keeps_a_small_eigenvalue_above_the_tolerance(self):
        est = mi_from_latent(np.diag([1.0, 1e-13]), 0.0)
        assert est.value == pytest.approx(-0.5 * math.log(1e-13), rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, 1e-3])
    def test_zero_log_determinant_is_positive_zero(self, z):
        # -0.5 * 0.0 is -0.0, which a CSV document printed as -0.0
        value = mi_from_latent(np.eye(1), z).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_estimate_shrinks_as_floor_grows(self):
        theta = 1.1
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        a = q @ np.diag([1.4, 0.01]) @ q.T
        values = [mi_from_latent(a, z).value for z in (1e-6, 1e-3, 0.05, 0.5)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))

    def test_rejects_negative_floor(self):
        with pytest.raises(DomainError):
            mi_from_latent(np.eye(2), -0.1)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_floor(self, z):
        # nan gave value nan, and inf gave -inf with every eigenvalue clamped
        with pytest.raises(DomainError, match="regularization floor z must be >= 0"):
            mi_from_latent(np.eye(3), z)

    @pytest.mark.parametrize(
        ("shat", "z", "message"),
        [
            ([[1.0, math.nan], [math.nan, 1.0]], 1e-3, "matrix contains non-finite entries"),
            (np.ones((2, 3)), 1e-3, "expected a square matrix, got shape (2, 3)"),
            (np.eye(2), -1.0, "regularization floor z must be >= 0, got -1.0"),
            ([[1.0, math.nan], [math.nan, 1.0]], -1.0, "matrix contains non-finite entries"),
            (np.ones((2, 3)), math.nan, "expected a square matrix, got shape (2, 3)"),
        ],
        ids=["nan", "non-square", "bad-z", "nan-and-bad-z", "non-square-and-bad-z"],
    )
    def test_a_bad_matrix_raises_before_a_bad_floor(self, shat, z, message):
        with pytest.raises(DomainError) as info:
            mi_from_latent(shat, z)
        assert type(info.value) is DomainError and str(info.value) == message

    def test_entries_near_the_float_limit(self):
        # symmetrizing overflowed with a RuntimeWarning; the largest
        # eigenvalue, 2e308, is past the float range and gave a silent -inf
        with pytest.raises(DomainError, match="overflows the float range"):
            mi_from_latent(np.full((2, 2), 1e308), 1e-3)

    def test_representable_eigenvalues_near_the_float_limit(self):
        # eigenvalues 1e308 and 0: the second is clamped to z
        est = mi_from_latent(np.full((2, 2), 5e307), 1e-3)
        assert est.value == -0.5 * (math.log(1e308) + math.log(1e-3))
        assert (est.lambda_min, est.clamped) == (0.0, 1)


def test_mi_from_latent_equals_the_eigenvalue_formula_bit_for_bit():
    rng = np.random.default_rng(7)
    for d in (2, 8, 25):
        g = rng.standard_normal((d, d))
        a = np.corrcoef(g @ g.T + 0.1 * np.eye(d))
        w = sym_eigen(a).eigenvalues
        for z in (1e-3, 0.5):
            est = mi_from_latent(a, z)
            want = 0.0 - 0.5 * float(np.sum(np.log(np.maximum(w, z))))
            assert (est.value, est.lambda_min, est.clamped) == (want, float(w[-1]), int(np.sum(w < z)))


class TestPluginBias:
    def test_frozen_reference_values(self):
        assert plugin_logdet_bias(50, 5) == pytest.approx(
            -0.41887808120319956, abs=1e-12
        )
        assert plugin_logdet_bias(100, 25) == pytest.approx(
            -3.8584426845928138, abs=1e-12
        )
        assert plugin_logdet_bias(50, 1) == pytest.approx(
            -0.040749678514893228, abs=1e-14
        )

    def test_monotone_in_dimension(self):
        vals = [plugin_logdet_bias(60, d) for d in range(1, 10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_insufficient_samples(self):
        with pytest.raises(DomainError):
            plugin_logdet_bias(5, 5)

    def test_monte_carlo_logdet_mean(self):
        # mean of log det S_hat for independent data should sit on the
        # predicted bias, well within Monte Carlo noise
        rng = np.random.default_rng(3)
        n, d, trials = 40, 4, 8000
        vals = np.empty(trials)
        for t in range(trials):
            x = rng.standard_normal((n, d))
            vals[t] = cholesky_logdet(np.cov(x, rowvar=False, bias=True))
        assert vals.mean() == pytest.approx(plugin_logdet_bias(n, d), abs=0.02)

    def test_logdet_error_is_a_pivot(self):
        # log det S_hat - log det Sigma has the same mean for correlated
        # Gaussians as for independent ones, so one correction fits all
        rng = np.random.default_rng(13)
        sigma = np.array([[1.0, 0.7, 0.3], [0.7, 1.0, 0.5], [0.3, 0.5, 1.0]])
        chol = np.linalg.cholesky(sigma)
        n, trials = 30, 8000
        vals = np.empty(trials)
        for t in range(trials):
            x = rng.standard_normal((n, 3)) @ chol.T
            logdet = cholesky_logdet(np.cov(x, rowvar=False, bias=True))
            vals[t] = logdet - cholesky_logdet(sigma)
        assert vals.mean() == pytest.approx(plugin_logdet_bias(n, 3), abs=0.02)


class TestMiGaussianPlugin:
    def test_single_column_is_zero(self):
        assert mi_gaussian_plugin(np.arange(10.0)).value == 0.0

    def test_requires_more_rows_than_columns(self):
        rng = np.random.default_rng(4)
        with pytest.raises(SingularScatter):
            mi_gaussian_plugin(rng.standard_normal((5, 5)))

    def test_constant_column_raises(self):
        x = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with pytest.raises(SingularScatter):
            mi_gaussian_plugin(x)

    def test_duplicate_column_raises(self):
        col = np.arange(10.0)
        with pytest.raises(SingularScatter):
            mi_gaussian_plugin(np.column_stack([col, col]))

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_covariance_is_singular_scatter(self, scale):
        x = np.random.default_rng(4).standard_normal((50, 3)) * scale
        with pytest.raises(SingularScatter, match="overflows"):
            mi_gaussian_plugin(x)

    def test_tiny_scale_is_not_a_constant_column(self):
        # np.std underflows to 0 here; the columns still take 50 values.
        x = np.random.default_rng(4).standard_normal((50, 3)) * 1e-300
        with pytest.raises(SingularScatter, match="singular:"):
            mi_gaussian_plugin(x)

    def test_equals_the_np_cov_formula_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for n, d in ((50, 3), (100, 25), (1024, 8), (9, 8)):
            x = rng.standard_normal((n, 2 * d)) @ rng.standard_normal((2 * d, 2 * d))
            # np.cov's copy keeps the input's layout, and with it the order of its sums
            for m in (x[:, :d], np.exp(x[:, ::2]), np.asfortranarray(x[:, d:]), x[::-1, :d]):
                logdet = cholesky_logdet(np.cov(m, rowvar=False, bias=True))
                want = -0.5 * (logdet - plugin_logdet_bias(n, d))
                assert mi_gaussian_plugin(m).value == want, (n, d)

    def test_moderate_scale_keeps_the_ordinary_value(self):
        x = np.random.default_rng(4).standard_normal((50, 3))
        n, d = x.shape
        value = -0.5 * (np.linalg.slogdet(np.cov(x, rowvar=False, bias=True))[1]
                        - plugin_logdet_bias(n, d))
        assert mi_gaussian_plugin(x).value == pytest.approx(value, rel=1e-12)
        assert mi_gaussian_plugin(x * 2.0**400).value == pytest.approx(
            value - d * 400 * math.log(2.0), rel=1e-12)

    def test_mean_near_zero_under_independence(self):
        rng = np.random.default_rng(5)
        n, d, trials = 50, 5, 3000
        vals = np.array(
            [mi_gaussian_plugin(rng.standard_normal((n, d))).value for _ in range(trials)]
        )
        assert abs(vals.mean()) <= 0.015

    def test_mean_near_truth_under_dependence(self):
        rng = np.random.default_rng(6)
        trials = 4000
        vals = np.array(
            [mi_gaussian_plugin(sample_corr(rng, 0.6, 30)).value for _ in range(trials)]
        )
        assert vals.mean() == pytest.approx(MI_AT_06, abs=0.02)


class TestEstimatorConfig:
    def test_rejects_nonpositive_neighbor_count(self):
        with pytest.raises(DomainError):
            EstimatorConfig(EstimatorKind.KNN, k=0)

    def test_rejects_fractional_neighbor_count(self):
        with pytest.raises(DomainError):
            EstimatorConfig(EstimatorKind.KNN, k=2.5)

    @pytest.mark.parametrize("k", [True, np.bool_(True)])
    def test_rejects_boolean_neighbor_count(self, k):
        with pytest.raises(DomainError):
            EstimatorConfig(EstimatorKind.KNN, k=k)

    def test_floored_kinds(self):
        assert [kind for kind in EstimatorKind if kind.floored] == [
            EstimatorKind.RHO, EstimatorKind.TAU
        ]

    def test_rejects_negative_floor(self):
        with pytest.raises(DomainError):
            EstimatorConfig(EstimatorKind.RHO, z=-1.0)

    def test_rank_estimators_need_positive_floor(self):
        with pytest.raises(DomainError):
            EstimatorConfig(EstimatorKind.TAU, z=0.0)

    def test_default_floor_for_rank_estimators(self):
        assert EstimatorConfig(EstimatorKind.RHO).effective_z == 1e-3
        assert EstimatorConfig(EstimatorKind.TAU).effective_z == 1e-3

    def test_default_floor_for_moment_estimator(self):
        assert EstimatorConfig(EstimatorKind.GAUSS).effective_z == 0.0

    def test_explicit_floor_wins(self):
        assert EstimatorConfig(EstimatorKind.RHO, z=0.05).effective_z == 0.05


class TestEstimateMi:
    def test_rejects_complex_data(self):
        x = np.random.default_rng(7).standard_normal((60, 3))
        with pytest.raises(DomainError):
            estimate_mi(x + 1j, EstimatorConfig(EstimatorKind.RHO))

    def test_reports_its_estimator(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 3))
        for kind in EstimatorKind:
            est = estimate_mi(x, EstimatorConfig(kind))
            assert est.estimator is kind

    def test_rank_estimators_ignore_monotone_distortion(self):
        rng = np.random.default_rng(8)
        x = sample_corr(rng, 0.5, 200)
        y = np.column_stack([np.exp(x[:, 0]), x[:, 1] ** 3])
        for kind in (EstimatorKind.GAUSS, EstimatorKind.RHO, EstimatorKind.TAU):
            cfg = EstimatorConfig(kind)
            assert estimate_mi(x, cfg).value == estimate_mi(y, cfg).value

    def test_moment_estimator_sees_the_distortion(self):
        rng = np.random.default_rng(9)
        x = sample_corr(rng, 0.8, 2000)
        y = np.column_stack([np.exp(x[:, 0]), x[:, 1]])
        cfg = EstimatorConfig(EstimatorKind.GAUSSIAN_PLUGIN)
        assert estimate_mi(y, cfg).value < estimate_mi(x, cfg).value

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_gauss_raises_on_a_constant_column(self, policy):
        # literal ranks put the whole column at probit(n / (n + 1)), which gave a negative MI
        x = np.random.default_rng(0).standard_normal((200, 3))
        x[:, 2] = 1.0
        for kind in (EstimatorKind.GAUSS, EstimatorKind.RHO):
            with pytest.raises(DegenerateColumn, match="column 2"):
                estimate_mi(x, EstimatorConfig(kind, tie_policy=policy))
        # every pair ties in the constant column, so its tau-a is a well-defined 0
        assert estimate_mi(x, EstimatorConfig(EstimatorKind.TAU)).value >= 0.0

    def test_scatter_diagnostic_attached(self):
        rng = np.random.default_rng(10)
        est = estimate_mi(rng.standard_normal((100, 4)), EstimatorConfig(EstimatorKind.GAUSS))
        assert est.diag_second_moment is not None
        assert 0.5 < est.diag_second_moment < 1.0

    def test_median_accuracy_on_dependent_data(self):
        rng = np.random.default_rng(11)
        for kind in (EstimatorKind.RHO, EstimatorKind.GAUSS):
            cfg = EstimatorConfig(kind)
            vals = [
                estimate_mi(sample_corr(rng, 0.6, 10_000), cfg).value
                for _ in range(40)
            ]
            assert abs(np.median(vals) - MI_AT_06) <= 0.03

    def test_median_near_zero_on_independent_data(self):
        rng = np.random.default_rng(12)
        kinds = (
            EstimatorKind.GAUSSIAN_PLUGIN,
            EstimatorKind.GAUSS,
            EstimatorKind.RHO,
            EstimatorKind.TAU,
        )
        vals = {kind: [] for kind in kinds}
        for _ in range(20):
            x = rng.standard_normal((10_000, 5))
            for kind in kinds:
                vals[kind].append(estimate_mi(x, EstimatorConfig(kind)).value)
        for kind in kinds:
            assert abs(np.median(vals[kind])) <= 0.02

    def test_variance_shrinks_with_sample_size(self):
        # quadrupling n should cut the variance by roughly four
        rng = np.random.default_rng(13)
        cfg = EstimatorConfig(EstimatorKind.RHO)
        small = [estimate_mi(sample_corr(rng, 0.5, 100), cfg).value for _ in range(300)]
        large = [estimate_mi(sample_corr(rng, 0.5, 400), cfg).value for _ in range(300)]
        ratio = np.var(small) / np.var(large)
        assert 2.5 <= ratio <= 6.0

    def test_floor_monotonicity_on_near_singular_data(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal(80)
        x = np.column_stack([base, base + 1e-6 * rng.standard_normal(80), rng.standard_normal(80)])
        values = [
            estimate_mi(x, EstimatorConfig(EstimatorKind.RHO, z=z)).value
            for z in (1e-6, 1e-3, 0.1)
        ]
        assert values[0] >= values[1] - 1e-12
        assert values[1] >= values[2] - 1e-12

    def test_gauss_on_a_singular_scatter_is_infinite(self):
        # one default_rng(3) stream: the first three draws gave 19.90, 20.79
        # and 21.97 when a roundoff-sized positive smallest eigenvalue counted
        # as positive
        rng = np.random.default_rng(3)
        cfg = EstimatorConfig(EstimatorKind.GAUSS)
        for n, d in [(2, 2), (3, 3), (10, 10), (24, 25), (5, 10), (20, 25), (25, 25)]:
            assert estimate_mi(rng.standard_normal((n, d)), cfg).value == math.inf, (n, d)

    @pytest.mark.parametrize("seed", range(3))
    def test_gauss_is_infinite_whenever_n_is_at_most_d(self, seed):
        # with distinct values every Gaussianized column sums to 0, so the
        # scatter has rank at most n - 1 < D
        rng = np.random.default_rng(seed)
        cfg = EstimatorConfig(EstimatorKind.GAUSS)
        for d in range(2, 26):
            for n in range(2, d + 1):
                est = estimate_mi(rng.standard_normal((n, d)), cfg)
                assert est.value == math.inf, (n, d)

    @pytest.mark.parametrize(("kind", "calls"), [(EstimatorKind.RHO, 2), (EstimatorKind.TAU, 1)])
    def test_rank_latent_is_symmetrized_once(self, monkeypatch, kind, calls):
        # the Spearman builder symmetrizes its result and the eigen step its
        # input; the sine map between them checks nothing the builders guarantee
        real, seen = matrix_core._symmetric_stack, []

        def counted(a):
            seen.append(1)
            return real(a)

        for module in (matrix_core, rank_stats, estimators):
            monkeypatch.setattr(module, "_symmetric_stack", counted)
        x = np.random.default_rng(16).standard_normal((200, 4))
        estimate_mi(x, EstimatorConfig(kind))
        assert len(seen) == calls

    def test_midrank_policy_flows_through(self):
        x = np.column_stack([[1.0, 1.0, 2.0, 3.0], [4.0, 2.0, 2.0, 1.0]])
        a = estimate_mi(x, EstimatorConfig(EstimatorKind.RHO))
        b = estimate_mi(x, EstimatorConfig(EstimatorKind.RHO, tie_policy=TiePolicy.MIDRANK))
        assert a.value != b.value


class TestDigamma:
    # frozen from mpmath.digamma
    TABLE = {
        1.0: -0.57721566490153286,
        2.0: 0.42278433509846714,
        0.5: -1.9635100260214235,
        5.5: 1.6110931485817511,
        24.5: 3.1781261463533075,
    }

    @pytest.mark.parametrize("x,expected", sorted(TABLE.items()))
    def test_reference_values(self, x, expected):
        assert digamma(x) == pytest.approx(expected, abs=5e-11)

    def test_against_mpmath_grid(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.geomspace(0.01, 300.0, 40):
            want = float(mpmath.digamma(mpmath.mpf(float(x))))
            assert digamma(float(x)) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("x", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    def test_small_integers_within_two_ulp(self, x):
        # every kNN entropy takes digamma(k), and k = 2 by default
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.digamma(x))
        assert abs(digamma(x) - want) <= 2 * math.ulp(want)

    @given(st.floats(0.01, 60.0))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, x):
        """digamma(x + 1) - digamma(x) equals 1/x."""
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(DomainError):
            digamma(x)


class TestKnnEntropy:
    def test_requires_more_samples_than_neighbors(self):
        with pytest.raises(InsufficientSamples):
            knn_entropy(np.array([1.0, 2.0]), k=2)

    def test_duplicate_group_at_k_is_infinite(self):
        p = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0])
        assert knn_entropy(p, k=2) == math.inf

    def test_pair_below_k_stays_finite(self):
        p = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0])
        assert math.isfinite(knn_entropy(p, k=3))

    def test_triple_at_k_three_is_infinite(self):
        p = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 5.0])
        assert knn_entropy(p, k=3) == math.inf

    def test_repeated_row_in_two_dimensions(self):
        x = np.random.default_rng(22).standard_normal((20, 2))
        x[1] = x[0]
        assert knn_entropy(x, k=2) == math.inf
        assert math.isfinite(knn_entropy(x, k=3))

    def test_uniform_entropy_near_zero(self):
        rng = np.random.default_rng(15)
        vals = [knn_entropy(rng.uniform(0, 1, 5000), k=2) for _ in range(30)]
        assert abs(np.mean(vals)) <= 0.05

    def test_standard_normal_entropy(self):
        rng = np.random.default_rng(16)
        vals = [knn_entropy(rng.standard_normal(5000), k=2) for _ in range(30)]
        assert np.mean(vals) == pytest.approx(HALF_LOG_2PIE, abs=0.05)

    def test_scaling_shifts_by_log_factor(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(2000)
        for a in (2.0, 7.5):
            got = knn_entropy(a * x, k=2) - knn_entropy(x, k=2)
            assert got == pytest.approx(math.log(a), abs=1e-10)

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_one_column_follows_the_scale_law_at_extreme_scales(self, scale):
        # squared differences would underflow or overflow at these scales
        x = np.arange(10.0)
        want = knn_entropy(x, k=2) + math.log(scale)
        assert knn_entropy(scale * x, k=2) == pytest.approx(want, rel=0, abs=1e-9)
        assert _marginal_entropies((scale * x)[:, None], 2) == [knn_entropy(scale * x, k=2)]

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_joint_tree_follows_the_scale_law_at_extreme_scales(self, scale):
        # the joint distances would square to below or above the float range
        x = np.random.default_rng(0).standard_normal((50, 2))
        want = knn_entropy(x, k=2) + 2 * math.log(scale)
        assert knn_entropy(scale * x, k=2) == pytest.approx(want, rel=0, abs=1e-9)
        assert mi_knn(scale * x, k=2).value == pytest.approx(mi_knn(x, k=2).value, rel=0, abs=1e-9)

    def test_joint_tree_keeps_the_distances_of_an_unscaled_tree(self):
        rng = np.random.default_rng(19)
        for d, k in ((2, 1), (3, 2), (6, 4)):
            x = 1e3 * rng.standard_normal((200, d))
            dist, _ = cKDTree(x).query(x, k=k + 1)
            assert knn_entropy(x, k=k) == _kl_entropy(200, d, k, dist[:, k])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_duplicate_rule_equals_the_unique_row_count(self, k):
        # np.unique on every call, as the rule reads without the column-0 shortcut
        def unique_rule_entropy(x):
            if np.unique(x, axis=0, return_counts=True)[1].max() >= max(k, 2):
                return math.inf
            dist, _ = cKDTree(x).query(x, k=k + 1)
            return _kl_entropy(x.shape[0], x.shape[1], k, dist[:, k])

        rng = np.random.default_rng(60 + k)
        base = rng.standard_normal((40, 3))
        planted = base.copy()
        planted[[5, 9, 30]] = planted[2]
        first_only = base.copy()
        first_only[[5, 9, 30], 0] = first_only[2, 0]
        pair = base.copy()
        pair[7] = pair[3]
        signed = base.copy()
        signed[[4, 11], 0] = [0.0, -0.0]
        signed[11, 1:] = signed[4, 1:]
        for x in (base, planted, first_only, pair, signed):
            assert knn_entropy(x, k=k) == unique_rule_entropy(x)
        # (0.0, x) and (-0.0, x) are one row repeated
        assert (knn_entropy(signed, k=k) == math.inf) == (k <= 2)

    def test_leaf_size_keeps_the_entropies_of_a_default_leaf_tree(self, monkeypatch):
        # the k-th distance of a point is the same float at any leaf size
        rng = np.random.default_rng(24)
        inputs = []
        for _ in range(12):
            n, d = int(rng.integers(4, 1500)), int(rng.integers(2, 30))
            inputs.append(rng.standard_normal((n, d)) @ rng.standard_normal((d, d)))
        pair = rng.standard_normal((300, 4))
        pair[[7, 99]] = pair[3]  # a row three times: inf at k <= 3
        inputs.append(pair)
        twice = rng.standard_normal((200, 3))
        twice[100:] = twice[:100]  # every row twice: finite at k = 3 only
        inputs.append(twice)
        inputs += [scale * rng.standard_normal((400, 3)) for scale in (1e-170, 1e-160, 1e160)]
        got = [[knn_entropy(x, k=k) for k in (1, 2, 3)] for x in inputs]
        assert math.isinf(got[-5][1]) and math.isinf(got[-4][0]) and not math.isinf(got[-4][2])
        monkeypatch.setattr(estimators, "_LEAF_SIZE", 16)  # cKDTree's default
        assert got == [[knn_entropy(x, k=k) for k in (1, 2, 3)] for x in inputs]

    def test_two_dimensional_gaussian(self):
        rng = np.random.default_rng(18)
        chol = np.linalg.cholesky(corr2(0.0))
        vals = [
            knn_entropy(rng.standard_normal((5000, 2)) @ chol.T, k=2)
            for _ in range(20)
        ]
        assert np.mean(vals) == pytest.approx(2 * HALF_LOG_2PIE, abs=0.05)


class TestMarginalPass:
    """The one-sort marginal pass equals knn_entropy on each column, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_tree_on_every_column(self, k):
        rng = np.random.default_rng(30 + k)
        for trial in range(40):
            n = k + 1 if trial < 8 else int(rng.integers(k + 2, 300))
            x = rng.standard_normal((n, 4))
            x[:, 1] = np.round(x[:, 1], 1)
            x[:, 2] = np.exp(3.0 * x[:, 2])
            x[:, 3] = np.round(4.0 * x[:, 3]) / 3.0
            want = [knn_entropy(x[:, j], k=k) for j in range(4)]
            assert _marginal_entropies(x, k) == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_a_direct_tree_query(self, k):
        # the KD-tree's distances, with the duplicate rule applied to them
        def tree_entropy(col):
            pts = col[:, None]
            if np.unique(col, return_counts=True)[1].max() >= max(k, 2):
                return math.inf
            dist, _ = cKDTree(pts).query(pts, k=k + 1)
            return _kl_entropy(col.size, 1, k, dist[:, k])

        rng = np.random.default_rng(40 + k)
        for trial in range(40):
            n = k + 1 if trial < 8 else int(rng.integers(k + 2, 300))
            x = rng.standard_normal((n, 4))
            x[:, 1] = np.round(x[:, 1], 1)
            x[:, 2] = np.exp(3.0 * x[:, 2])
            x[:, 3] = np.round(4.0 * x[:, 3]) / 3.0
            assert _marginal_entropies(x, k) == [tree_entropy(x[:, j]) for j in range(4)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_kl_entropy_of_every_column(self, k):
        # the one reduction over all columns against one _kl_entropy per column
        def column_entropy(col):
            srt = np.sort(col)
            if np.any(srt[max(k, 2) - 1:] == srt[: col.size - max(k, 2) + 1]):
                return math.inf
            gaps = np.abs(col[:, None] - col[None, :])
            return _kl_entropy(col.size, 1, k, np.sort(gaps, axis=1)[:, k])

        rng = np.random.default_rng(50 + k)
        for trial in range(30):
            n = k + 1 if trial < 6 else int(rng.integers(k + 2, 200))
            x = rng.standard_normal((n, 5))
            x[:, 1] = np.round(x[:, 1], 1)
            x[:, 2] = np.exp(3.0 * x[:, 2])
            x[:, 3] = np.round(4.0 * x[:, 3]) / 3.0
            x[:, 4] *= 1e300
            assert _marginal_entropies(x, k) == [column_entropy(x[:, j]) for j in range(5)]

    def test_mi_knn_is_the_tree_decomposition(self):
        rng = np.random.default_rng(34)
        x = sample_corr(rng, 0.5, 400)
        x[:, 0] = np.exp(x[:, 0])
        parts = sum(knn_entropy(x[:, j], k=2) for j in range(2))
        assert mi_knn(x, k=2).value == float(parts - knn_entropy(x, k=2))

    def test_rejects_bad_k_like_the_tree(self):
        with pytest.raises(DomainError):
            _marginal_entropies(np.zeros((5, 2)), 0)
        with pytest.raises(InsufficientSamples):
            _marginal_entropies(np.zeros((3, 2)), 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_column_blocks_leave_every_bit(self, k, monkeypatch):
        # 3,000 x 30 is two blocks, of 21 and 9 columns, at the default size
        rng = np.random.default_rng(60 + k)
        x = rng.standard_normal((3000, 30))
        x[:, 1::5] = np.round(x[:, 1::5], 3)  # ties
        x[1::2, 2::5] = x[::2, 2::5]  # every value twice: finite at k = 3 only
        x[:40, 3::5] = 0.5  # a run of 40
        x[:, 4::5] = np.exp(5.0 * x[:, 4::5])
        blocks = _marginal_entropies(x, k)
        assert blocks == [knn_entropy(x[:, j], k=k) for j in range(30)]
        assert any(math.isinf(h) for h in blocks) and not all(math.isinf(h) for h in blocks)
        for size in (x.shape[0], x.size):
            monkeypatch.setattr(rank_stats, "_COLUMN_BLOCK", size)
            assert _marginal_entropies(x, k) == blocks

    @pytest.mark.parametrize("size", [1, 3000 * 7, 3000 * 30])
    def test_reach_slices_leave_every_bit(self, size, monkeypatch):
        # one column per slice, a partial last slice of 2 columns, and one slice
        rng = np.random.default_rng(64)
        x = rng.standard_normal((3000, 30))
        x[:, 1::3] = np.round(x[:, 1::3], 2)  # ties
        want = _marginal_entropies(x, 2)
        monkeypatch.setattr(estimators, "_REACH_BLOCK", size)
        assert _marginal_entropies(x, 2) == want

    def test_block_peak_stays_below_three_blocks(self):
        # the sort order and the sorted values, beside the reach arithmetic
        # on a slice of the columns at a time
        x = np.random.default_rng(63).standard_normal((1024, 64))
        tracemalloc.start()
        try:
            estimators._block_entropies(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes

    def test_entropy_peak_stays_below_the_input_size(self):
        x = np.random.default_rng(62).standard_normal((20000, 25))
        tracemalloc.start()
        try:
            entropy_npn(x, mi=MiEstimate(0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * x.nbytes


class TestMiKnn:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(19)
        vals = [mi_knn(rng.uniform(0, 1, (5000, 2)), k=2).value for _ in range(30)]
        assert abs(np.mean(vals)) <= 0.05

    def test_strong_dependence(self):
        rng = np.random.default_rng(20)
        vals = [mi_knn(sample_corr(rng, 0.9, 4000), k=2).value for _ in range(30)]
        assert np.mean(vals) == pytest.approx(MI_AT_09, abs=0.15)

    def test_atom_column_is_infinite(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((100, 2))
        x[:30, 0] = 5.0
        est = mi_knn(x, k=2)
        assert est.is_infinite
        assert est.value == math.inf

    def test_requires_enough_samples(self):
        with pytest.raises(InsufficientSamples):
            mi_knn(np.zeros((2, 2)), k=2)

    def test_rejects_fractional_neighbor_count(self):
        with pytest.raises(DomainError):
            mi_knn(np.random.default_rng(23).standard_normal((20, 2)), 1.5)


class TestEntropyNpn:
    def test_decomposes_into_marginals_minus_mi(self):
        rng = np.random.default_rng(22)
        x = sample_corr(rng, 0.4, 500)
        marginals = sum(knn_entropy(x[:, j], k=2) for j in range(2))
        mi = estimate_mi(x, EstimatorConfig(EstimatorKind.RHO, z=1e-3)).value
        assert entropy_npn(x, z=1e-3, k=2) == pytest.approx(marginals - mi, abs=1e-12)

    def test_bivariate_gaussian_value(self):
        # H = log(2 pi e) + log(1 - 0.36)/2 for correlation 0.6
        rng = np.random.default_rng(23)
        x = sample_corr(rng, 0.6, 10_000)
        assert entropy_npn(x) == pytest.approx(2.6147335150951357, abs=0.1)

    def test_given_rho_estimate_is_used_as_is(self):
        rng = np.random.default_rng(25)
        x = sample_corr(rng, 0.4, 500)
        mi = estimate_mi(x, EstimatorConfig(EstimatorKind.RHO, z=1e-3))
        assert entropy_npn(x, z=1e-3, k=2, mi=mi) == entropy_npn(x, z=1e-3, k=2)

    def test_atom_marginal_is_infinite(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((100, 2))
        x[:40, 1] = 2.5
        assert entropy_npn(x) == math.inf


def estimate_bits(est: MiEstimate) -> tuple:
    """Every field of an estimate, each float as its bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(est))


BATCH_CONFIGS = [EstimatorConfig(kind) for kind in EstimatorKind] + [
    EstimatorConfig(EstimatorKind.GAUSS, tie_policy=TiePolicy.MIDRANK),
    EstimatorConfig(EstimatorKind.RHO, tie_policy=TiePolicy.MIDRANK),
    EstimatorConfig(EstimatorKind.TAU, z=0.05),
    EstimatorConfig(EstimatorKind.KNN, k=1),
]


def assert_batch_equals_each_call(xs, cfgs=BATCH_CONFIGS):
    """Each trial's estimate in one batch is estimate_mi's on the trial alone, bit for bit.

    Where some trial's call raises an NpnError, the batch raises one too.
    Returns the number of batches that gave estimates.
    """
    batch, d, ran = np.hstack(xs), xs[0].shape[1], 0
    for cfg in cfgs:
        want = []
        for x in xs:
            try:
                want.append(estimate_bits(estimate_mi(x, cfg)))
            except NpnError:
                want = None
                break
        if want is None:
            with pytest.raises(NpnError):
                _estimate_batch(batch, cfg, d)
        else:
            assert [estimate_bits(e) for e in _estimate_batch(batch, cfg, d)] == want, cfg
            ran += 1
    return ran


class TestBatch:
    """estimate_mi on a batch of trials side by side: each trial's bits, as alone."""

    @pytest.mark.parametrize("experiment", [1, 2, 3, 4])
    def test_every_kind_in_every_experiment(self, experiment):
        from npn import simulation

        spec = simulation.ExperimentSpec(
            simulation.ExperimentId(experiment), trials=5, n=90, d=6, seed=3,
        ).resolved()
        for v in spec.sweep:
            xs = []
            for trial in range(spec.trials):
                sigma, _ = simulation._draw_truth(spec, v, trial)
                xs.append(simulation._draw_trial_data(spec, sigma, v, trial)[0])
            assert assert_batch_equals_each_call(xs) >= len(BATCH_CONFIGS) - 1

    @pytest.mark.parametrize(("n", "d"), [(100, 25), (1024, 8), (256, 8), (40, 2), (60, 1), (200, 30)])
    def test_benchmark_and_edge_shapes(self, n, d):
        rng = np.random.default_rng(n + d)
        xs = [rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) for _ in range(4)]
        assert assert_batch_equals_each_call(xs) == len(BATCH_CONFIGS)

    @pytest.mark.parametrize("digits", [0, 1])
    def test_literal_and_midrank_ties(self, digits):
        rng = np.random.default_rng(70 + digits)
        xs = [np.round(rng.standard_normal((80, 5)), digits) for _ in range(3)]
        # rounding to integers leaves atoms every estimator but knn accepts
        assert assert_batch_equals_each_call(xs) >= len(BATCH_CONFIGS) - 2

    def test_outlier_ties(self):
        from npn.simulation import inject_outliers

        rng = np.random.default_rng(72)
        xs = [inject_outliers(rng.standard_normal((100, 7)), 0.3, rng) for _ in range(4)]
        assert assert_batch_equals_each_call(xs, BATCH_CONFIGS + [EstimatorConfig(EstimatorKind.KNN, k=40)]) > 0

    @pytest.mark.parametrize(("n", "d"), [(5, 6), (6, 6), (2, 3), (3, 2)])
    def test_n_at_most_d(self, n, d):
        rng = np.random.default_rng(73)
        xs = [rng.standard_normal((n, d)) for _ in range(3)]
        assert_batch_equals_each_call(xs, [c for c in BATCH_CONFIGS if c.kind is not EstimatorKind.KNN])

    @pytest.mark.parametrize("d", [2, 4, 8, 25])
    def test_both_kendall_kernels(self, d):
        rng = np.random.default_rng(74 + d)
        tau = [EstimatorConfig(EstimatorKind.TAU)]
        for n in (63 + 4 * d, 64 + 4 * d):
            xs = [np.round(rng.standard_normal((n, d)), 1) for _ in range(3)]
            assert assert_batch_equals_each_call(xs, tau) == 1

    def test_one_failing_trial_fails_the_batch(self):
        rng = np.random.default_rng(75)
        xs = [rng.standard_normal((50, 4)) for _ in range(3)]
        xs[1][:, 2] = 1.0  # a constant column in the middle trial only
        # tau of a constant column is 0 and knn's entropy inf: both tau and both knn configs run
        assert assert_batch_equals_each_call(xs) == 4

    def test_merge_kernel_threads_only_where_one_trial_would(self, monkeypatch):
        # 40 trials of 28 pairs x n = 1,024 pass the thread threshold together, not alone
        pools = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(1)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        monkeypatch.setattr(rank_stats, "_available_cores", lambda: 4)
        n, d, trials = 1024, 8, 40
        assert 28 * n < rank_stats._THREAD_WORK <= trials * 28 * n
        x = np.random.default_rng(76).standard_normal((n, trials * d))
        _estimate_batch(x, EstimatorConfig(EstimatorKind.TAU), d)
        assert pools == []
        estimate_mi(np.random.default_rng(77).standard_normal((n, 64)), EstimatorConfig(EstimatorKind.TAU))
        assert pools == [1]  # 2,016 pairs x 1,024 alone

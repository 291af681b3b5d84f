"""Tests for the mutual-information and entropy estimators.

Closed-form targets: for a bivariate normal with correlation s the mutual
information is -log(1 - s^2)/2, the entropy of a standard normal is
log(2*pi*e)/2 per dimension, and the digamma values were frozen from
mpmath. The scatter bias term has the exact expectation
E[log det R_hat] = log det P + sum_j (psi((n-j)/2) - psi((n-1)/2)),
which the Monte Carlo tests below exercise directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from npn.errors import (
    DomainError,
    InsufficientSamples,
    NotPositiveDefinite,
    SingularScatter,
)
from npn.estimators import (
    EstimatorConfig,
    EstimatorKind,
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
from npn.matrix_core import cholesky_logdet
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

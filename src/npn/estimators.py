"""Mutual information and entropy estimators.

Under a Gaussian copula with latent correlation matrix S, the mutual
information shared by the D coordinates is

    I(X) = -1/2 * log det S,

so every copula-aware estimator here reduces to estimating S and taking a
regularized log-determinant. Five estimators are provided:

* ``gaussian``  - Gaussian plug-in: empirical covariance of the raw data
  with an exact determinant bias correction; consistent only when the data
  really are jointly Gaussian with unit marginal variances.
* ``gauss``     - correlation of the rank-Gaussianized data (uncentered
  second moments, divisor n).
* ``rho``       - Spearman correlation mapped through 2 sin(pi rho / 6).
* ``tau``       - Kendall tau-a mapped through sin(pi tau / 2).
* ``knn``       - Kozachenko-Leonenko k-nearest-neighbor entropies
  combined as sum_j H(X_j) - H(X); fully nonparametric baseline.

The rank-based estimators take the log-determinant of their
latent-correlation estimate in :func:`mi_from_latent`, which raises every
eigenvalue below the floor z to z, controlling the variance blowup near
singularity at the price of a bounded range.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np
from scipy import special

from .errors import (
    DomainError,
    InsufficientSamples,
    NoConvergence,
    NotPositiveDefinite,
    SingularScatter,
)
from .matrix_core import _logdet_stack, _symmetric_stack, as_correlation, as_symmetric, cholesky_logdet
from .rank_stats import (
    TiePolicy,
    _column_blocks,
    _kendall_stack,
    _sigma_g_stack,
    _sine_map,
    _sorted_rows,
    _spearman_stack,
    _trial_stack,
    ensure_data_matrix,
)

__all__ = [
    "EstimatorKind",
    "EstimatorConfig",
    "MiEstimate",
    "true_mi",
    "mi_from_latent",
    "estimate_mi",
    "mi_gaussian_plugin",
    "plugin_logdet_bias",
    "digamma",
    "knn_entropy",
    "mi_knn",
    "entropy_npn",
]

DEFAULT_Z = 1e-3
DEFAULT_K = 2
# Points per leaf of the joint kNN KD-tree. The k-th distance of a point is
# the same float at any leaf size; this one is the fastest of a sweep over
# the Monte Carlo shapes (see CHANGES.md).
_LEAF_SIZE = 64
# Entries per slice of columns in the marginal kNN pass's reach arithmetic.
_REACH_BLOCK = 1 << 13


class EstimatorKind(enum.Enum):
    """The five estimators, named as on the command line."""

    GAUSSIAN_PLUGIN = "gaussian"
    GAUSS = "gauss"
    RHO = "rho"
    TAU = "tau"
    KNN = "knn"

    @property
    def floored(self) -> bool:
        """Whether the latent estimate's eigenvalues are floored at z (rho, tau)."""
        return self in (self.RHO, self.TAU)


@dataclasses.dataclass(frozen=True)
class EstimatorConfig:
    """Estimator selection plus its tuning knobs.

    ``z`` is the eigenvalue floor for the projection step; ``None`` picks
    the per-kind default (1e-3 for rho/tau, 0 for gauss, ignored
    otherwise). ``k`` is the neighbor count for the kNN estimator.
    """

    kind: EstimatorKind
    z: float | None = None
    k: int = DEFAULT_K
    tie_policy: TiePolicy = TiePolicy.LITERAL

    def __post_init__(self):
        _check_k(self.k)
        if self.z is not None:
            if self.z < 0.0 or not math.isfinite(self.z):
                raise DomainError(f"regularization floor z must be >= 0, got {self.z}")
            if self.z == 0.0 and self.kind.floored:
                raise DomainError("rho/tau estimators require a positive z")

    @property
    def effective_z(self) -> float:
        if self.z is not None:
            return self.z
        return DEFAULT_Z if self.kind.floored else 0.0


@dataclasses.dataclass(frozen=True)
class MiEstimate:
    """An estimate with projection diagnostics.

    ``value`` is ``math.inf`` when the estimate diverged (kNN with
    duplicate samples, or the unregularized gauss estimator on a singular
    scatter). ``lambda_min`` is the smallest eigenvalue of the latent
    correlation estimate before projection and ``clamped`` the number of
    eigenvalues the projection raised; both are None when the estimator has
    no projection step. ``diag_second_moment`` records the mean diagonal of
    the rank-Gaussianized scatter (gauss only), whose deterministic
    shortfall from 1 is part of that estimator's bias.
    """

    value: float
    estimator: EstimatorKind | None = None
    lambda_min: float | None = None
    clamped: int | None = None
    diag_second_moment: float | None = None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def true_mi(s) -> float:
    """Mutual information of a Gaussian copula with correlation matrix s.

    Returns ``-1/2 log det s``, which is nonnegative for any correlation
    matrix by Hadamard's inequality; tiny negative roundoff is clamped to
    zero. Block-diagonal structure makes the value additive across blocks.

    Raises
    ------
    DomainError
        If ``s`` is not a correlation matrix (unit diagonal, entries in
        [-1, 1]).
    NotPositiveDefinite
        If ``s`` is singular or indefinite.
    """
    mat = as_correlation(s, atol=1e-8)
    value = -0.5 * cholesky_logdet(mat)
    return 0.0 if -1e-12 < value < 0.0 else value


def mi_from_latent(shat, z: float) -> MiEstimate:
    """Log-determinant mutual information of a latent correlation estimate.

    With ``z > 0`` the matrix is projected onto the cone of symmetric
    matrices with eigenvalues >= z (clamping from the eigendecomposition)
    and the returned value is -1/2 times the projected log-determinant.
    With ``z == 0`` no projection is applied and a non-positive smallest
    eigenvalue yields an infinite estimate. Non-positive there means at or
    below D * eps * max |eigenvalue|, ``np.linalg.matrix_rank``'s tolerance,
    so a singular matrix (gauss's scatter when n <= D) gives ``inf``
    whatever the sign of its roundoff-sized smallest eigenvalue. A negative
    or non-finite ``z``, or an eigenvalue past the float range, raises
    DomainError.
    """
    return _latent_mi_stack(as_symmetric(shat)[None], z)[0]


def _latent_mi_stack(mats: np.ndarray, z: float, kind: EstimatorKind | None = None) -> list[MiEstimate]:
    """:func:`mi_from_latent` of every matrix of a symmetrized stack (T, D, D), labelled ``kind``.

    One stacked ``eigh`` call decomposes each matrix as a lone call does,
    and each trial's sums are its own row's reductions, so every estimate
    has the bits of a lone call. The caller validates and symmetrizes the
    stack (:func:`as_symmetric`), so a bad matrix raises before a bad z.
    """
    try:
        w = np.linalg.eigh(mats)[0][:, ::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    if z < 0.0 or not math.isfinite(z):
        raise DomainError(f"regularization floor z must be >= 0, got {z}")
    if not np.all(np.isfinite(w)):
        raise DomainError("the latent estimate's largest eigenvalue overflows the float range")
    d = w.shape[1]
    lam_min = w[:, -1].tolist()
    singular = (w[:, -1] <= d * np.finfo(np.float64).eps * np.max(np.abs(w), axis=1)).tolist()
    clamped = np.sum(w < z, axis=1).tolist()
    # At z = 0 a singular trial's log of a non-positive eigenvalue is never used.
    with np.errstate(divide="ignore", invalid="ignore"):
        logdet = np.sum(np.log(np.maximum(w, z)), axis=1).tolist()
    out = []
    for lam, sing, c, ld in zip(lam_min, singular, clamped, logdet):
        if z == 0.0 and sing:
            out.append(MiEstimate(value=math.inf, estimator=kind, lambda_min=lam, clamped=0))
        else:
            # 0.0 - x, not -x: a log-determinant of +0.0 gives 0.0, not -0.0.
            out.append(MiEstimate(value=0.0 - 0.5 * ld, estimator=kind, lambda_min=lam, clamped=c))
    return out


def plugin_logdet_bias(n: int, d: int) -> float:
    """Exact mean of ``log det S - log det Sigma`` for Gaussian samples.

    S is the mean-centered empirical covariance with divisor n, so n*S is
    Wishart with n - 1 degrees of freedom and scale Sigma, and the Bartlett
    decomposition gives, for every Sigma,

        E[log det S] - log det Sigma = sum_{j=1}^{D} [psi((n-j)/2) - log(n/2)]

    exactly. Subtracting this constant makes the plug-in log-determinant
    estimate unbiased; the difference ``log det S - log det Sigma`` is a
    pivot, so the correction does not depend on Sigma.
    """
    if n <= d:
        raise DomainError(f"bias term defined for n > D, got n={n}, D={d}")
    half_log_n = math.log(n / 2.0)
    return float(sum(digamma((n - j) / 2.0) - half_log_n for j in range(1, d + 1)))


def mi_gaussian_plugin(x) -> MiEstimate:
    """Gaussian plug-in estimate with exact determinant bias correction.

    Computes the mean-centered empirical covariance of the raw data
    (divisor n) and returns ``-1/2 (log det S - b(n, D))`` with ``b`` from
    :func:`plugin_logdet_bias`. The estimate is consistent when the data
    are Gaussian with unit marginal variances; monotone marginal
    distortions move both the covariance scale and shape, which is exactly
    the sensitivity the rank estimators avoid. Requires n > D. A single
    column has no dependence to measure, so D = 1 returns 0.0.

    Raises
    ------
    SingularScatter
        If n <= D, a column is constant, or the empirical covariance
        overflows or is numerically singular.
    """
    m = ensure_data_matrix(x)
    return _plugin_batch(m, m.shape[1])[0]


def _plugin_batch(m: np.ndarray, d: int) -> list[MiEstimate]:
    """:func:`mi_gaussian_plugin` of each trial of d columns of ``m``.

    Each trial's covariance repeats ``np.cov``'s arithmetic on a centered
    copy that keeps the input's memory layout, as ``np.cov``'s does, so its
    bits are those of ``np.cov`` on the trial alone, a Fortran-ordered one
    included.
    """
    n = m.shape[0]
    trials = m.shape[1] // d
    if n <= d:
        raise SingularScatter(f"Gaussian plug-in needs n > D, got n={n}, D={d}")
    if d == 1:
        return [MiEstimate(value=0.0, estimator=EstimatorKind.GAUSSIAN_PLUGIN)] * trials
    # Compared, not subtracted: np.std underflows to 0 at tiny scales and
    # np.ptp overflows at huge ones.
    if np.any(np.min(m, axis=0) == np.max(m, axis=0)):
        raise SingularScatter("constant column makes the scatter singular")
    centered = _trial_stack(m, d).copy(order="K")
    with np.errstate(over="ignore", invalid="ignore"):
        centered -= centered.mean(axis=1)[:, None, :]
        cov = np.matmul(centered.mT, centered)
        cov *= 1 / n
    if not np.all(np.isfinite(cov)):
        raise SingularScatter("empirical covariance overflows the float range")
    try:
        logdet = _logdet_stack(_symmetric_stack(cov)).tolist()
    except NotPositiveDefinite as exc:
        raise SingularScatter(f"empirical covariance is singular: {exc}") from exc
    bias = plugin_logdet_bias(n, d)
    return [MiEstimate(value=-0.5 * (ld - bias), estimator=EstimatorKind.GAUSSIAN_PLUGIN) for ld in logdet]


def estimate_mi(x, cfg: EstimatorConfig) -> MiEstimate:
    """Dispatch to the estimator selected by ``cfg``.

    The rank-based kinds (gauss, rho, tau) depend on the data only through
    columnwise ranks, so strictly increasing marginal transforms leave
    their output bit-identical.

    This is the batch of one trial of :func:`_estimate_batch`, which the
    Monte Carlo harness calls on many trials at once: each trial's
    estimate there is this call's, bit for bit.
    """
    return _estimate_batch(x, cfg)[0]


def _estimate_batch(x, cfg: EstimatorConfig, d: int | None = None) -> list[MiEstimate]:
    """:func:`estimate_mi` of each trial of an n x (T d) matrix, trial t in columns t d to t d + d - 1.

    With ``d`` absent the whole matrix is one trial.

    Every column-wise pass (ranks, spread checks, ``ndtri``, the marginal
    kNN pass, Kendall's keys) runs once over all the columns, and every
    per-trial product or factorization (the Gram, Spearman and Kendall
    matrices, the plug-in's covariance and Cholesky factor, ``eigh``) runs
    as one stacked call over the trials. Each trial's estimate is the bits
    of :func:`estimate_mi` on its columns alone. An NpnError that any trial
    would raise is raised for the batch, naming no trial, so a caller that
    needs each trial's own outcome then runs the trials one at a time.
    """
    m = ensure_data_matrix(x)
    if m.shape[0] < 2:
        raise DomainError("mutual information estimation needs n >= 2")
    d = m.shape[1] if d is None else d
    kind = cfg.kind
    if kind is EstimatorKind.GAUSSIAN_PLUGIN:
        return _plugin_batch(m, d)
    if kind is EstimatorKind.KNN:
        return _knn_batch(m, d, cfg.k)
    if kind is EstimatorKind.GAUSS:
        scatter = _sigma_g_stack(m, d, cfg.tie_policy)
        ests = _latent_mi_stack(_symmetric_stack(scatter), cfg.effective_z, kind)
        diag = np.mean(np.diagonal(scatter, axis1=1, axis2=2), axis=1).tolist()
        return [dataclasses.replace(e, diag_second_moment=s) for e, s in zip(ests, diag)]
    if kind is EstimatorKind.RHO:
        latent = _sine_map(_spearman_stack(m, d, cfg.tie_policy), "spearman")
    elif kind is EstimatorKind.TAU:
        latent = _sine_map(_kendall_stack(m, d), "kendall")
    else:
        raise DomainError(f"unknown estimator kind {kind!r}")
    return _latent_mi_stack(_symmetric_stack(latent), cfg.effective_z, kind)


def digamma(x: float) -> float:
    """Digamma function for positive real arguments, SciPy's ``digamma``.

    Raises
    ------
    DomainError
        If ``x <= 0`` or non-finite.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    return float(special.digamma(x))


def _unit_ball_log_volume(d: int) -> float:
    """log volume of the d-dimensional Euclidean unit ball."""
    return (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def _kl_entropy(n: int, d: int, k: int, eps: np.ndarray) -> float:
    """Kozachenko-Leonenko formula from the k-th neighbor distances."""
    if np.any(eps <= 0.0):
        return math.inf
    return (
        digamma(n)
        - digamma(k)
        + _unit_ball_log_volume(d)
        + (d / n) * float(np.sum(np.log(eps)))
    )


def _check_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"neighbor count k must be an integer, got {k!r}")
    if k < 1:
        raise DomainError(f"neighbor count k must be >= 1, got {k}")


def _check_knn_shape(n: int, k: int) -> None:
    _check_k(k)
    if n <= k:
        raise InsufficientSamples(f"kNN entropy needs n > k, got n={n}, k={k}")


def knn_entropy(p, k: int = DEFAULT_K) -> float:
    """Kozachenko-Leonenko differential entropy estimate.

    For n points in d dimensions with eps_i the Euclidean distance from
    point i to its k-th nearest other point,

        H = psi(n) - psi(k) + log V_d + (d / n) sum_i log eps_i.

    Returns ``math.inf`` when any k samples coincide (for k = 1, when any
    two coincide): repeated values put atoms in the data, the local
    distances degenerate, and the estimate diverges.

    A single column goes through the one-sort pass of
    :func:`_marginal_entropies`, whose distances are plain absolute
    differences. For d >= 2 the distances come from a KD-tree, which
    squares coordinate differences; the tree holds the points scaled by a
    power of two to a largest magnitude in [1/2, 1), so those squares
    neither underflow nor overflow at extreme scales, and the scaling,
    being exact, leaves the distances' bits as they are at ordinary ones.

    Raises
    ------
    InsufficientSamples
        If n <= k.
    """
    m = ensure_data_matrix(p)
    if m.shape[1] == 1:
        return _marginal_entropies(m, k)[0]
    _check_knn_shape(m.shape[0], k)
    return _joint_entropy(m, k)


def _joint_entropy(m: np.ndarray, k: int) -> float:
    """:func:`knn_entropy`'s tree path on a checked matrix of d >= 2 columns."""
    from scipy.spatial import cKDTree

    n, d = m.shape
    # Equal rows share their first entry, so rows can repeat only where it does.
    first = np.sort(m[:, 0])
    if np.any(first[1:] == first[:-1]):
        _, counts = np.unique(m, axis=0, return_counts=True)
        if int(counts.max()) >= max(k, 2):
            return math.inf
    e = np.frexp(np.max(np.abs(m)))[1]
    unit = np.ldexp(m, -e)
    dist, _ = cKDTree(unit, leafsize=_LEAF_SIZE).query(unit, k=k + 1)
    # A distance past the float range is inf, as in the one-column pass.
    with np.errstate(over="ignore"):
        return _kl_entropy(n, d, k, np.ldexp(dist[:, k], e))


def _marginal_entropies(m: np.ndarray, k: int) -> list[float]:
    """:func:`knn_entropy` of every column of ``m``, from one sort per column.

    In one dimension a point and its k nearest others are k + 1
    consecutive sorted values, so eps_i is the smallest reach from i over
    the k + 1 windows of that length that contain it. The reach is an
    absolute difference. A KD-tree's distance sqrt(d * d) is the same
    float wherever d * d neither underflows nor overflows, and the reach
    stays exact at scales where it would. The columns are the rows of one
    array, and their Kozachenko-Leonenko sums one reduction.

    Memory: the pass takes the columns one block (:func:`_column_blocks`)
    at a time, and holds about 2.5 times a block's bytes
    (:func:`_block_entropies`), not five times the matrix's. Each column's
    entropy is one row of its block's reduction, so the blocking leaves its
    bits as they are.
    """
    n, d = m.shape
    _check_knn_shape(n, k)
    return [h for cols in _column_blocks(n, d) for h in _block_entropies(m[:, cols], k)]


def _block_entropies(m: np.ndarray, k: int) -> list[float]:
    """:func:`_marginal_entropies` of one block of columns.

    The sort order and the sorted values are the pass's two arrays of the
    block's size; the reach arithmetic takes a slice of about
    ``_REACH_BLOCK`` entries of whole columns at a time
    (:func:`_log_reach_sums`), so a whole block peaks near 2.5 times its
    bytes. Each column's sum is one reduction of its own row, so the
    slicing leaves its bits as they are.
    """
    n, d = m.shape
    order, s = _sorted_rows(m)
    # A run of max(k, 2) equal sorted values is the tree path's duplicate rule.
    dup = np.any(s[:, max(k, 2) - 1:] == s[:, : n - max(k, 2) + 1], axis=1)
    step = max(1, _REACH_BLOCK // n)
    sums = np.concatenate([_log_reach_sums(order[lo:lo + step], s[lo:lo + step], k)
                           for lo in range(0, d, step)])
    h = digamma(n) - digamma(k) + _unit_ball_log_volume(1) + (1 / n) * sums
    return np.where(dup, np.inf, h).tolist()


def _log_reach_sums(order: np.ndarray, s: np.ndarray, k: int) -> np.ndarray:
    """Per row of sorted values ``s``, the sum of the logs of their kNN reaches in the order ``order``.

    A value's reach is the least, over the k + 1 windows of k + 1
    consecutive sorted values that hold it, of its largest distance inside
    the window. The logs are summed in the columns' own order, ``order``
    being the sort order of each row.
    """
    d, n = s.shape
    reach = np.full((d, n), np.inf)
    below, above = np.empty((d, n - k)), np.empty((d, n - k))
    # A difference past the float range is inf, as a tree's distance is.
    with np.errstate(over="ignore"):
        for j in range(k + 1):
            # Sorted positions p = j .. n - k + j - 1 have the window [p - j, p - j + k].
            at = slice(j, n - k + j)
            np.subtract(s[:, at], s[:, :n - k], out=below)
            np.subtract(s[:, k:], s[:, at], out=above)
            np.maximum(below, above, out=below)
            np.minimum(reach[:, at], below, out=reach[:, at])
    # Freed first, so that eps adds nothing to the peak.
    del below, above
    eps = np.empty((d, n))
    np.put_along_axis(eps, order, reach, axis=1)
    del reach
    # A zero distance needs k + 1 equal values, which dup already flags.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(np.log(eps, out=eps), axis=1)


def mi_knn(x, k: int = DEFAULT_K) -> MiEstimate:
    """Nonparametric mutual information via the entropy decomposition.

    Returns sum_j H(X_j) - H(X) with every entropy a Kozachenko-Leonenko
    estimate: the marginals from one sort per column, bit-identical to
    :func:`knn_entropy` on each column, and the joint from
    :func:`knn_entropy`'s tree. The estimate is flagged infinite as soon as
    any component diverges.
    """
    m = ensure_data_matrix(x)
    return _knn_batch(m, m.shape[1], k)[0]


def _knn_batch(m: np.ndarray, d: int, k: int) -> list[MiEstimate]:
    """:func:`mi_knn` of each trial of d columns of ``m``: one marginal pass, one joint tree per trial."""
    parts = _marginal_entropies(m, k)
    out = []
    for lo in range(0, m.shape[1], d):
        marginals = parts[lo:lo + d]
        joint = marginals[0] if d == 1 else _joint_entropy(m[:, lo:lo + d], k)
        if math.isinf(joint) or any(math.isinf(h) for h in marginals):
            out.append(MiEstimate(value=math.inf, estimator=EstimatorKind.KNN))
        else:
            out.append(MiEstimate(value=float(sum(marginals) - joint), estimator=EstimatorKind.KNN))
    return out


def entropy_npn(x, z: float = DEFAULT_Z, k: int = DEFAULT_K, mi: MiEstimate | None = None) -> float:
    """Joint differential entropy under the Gaussian copula model.

    The copula model splits H(X) into marginal entropies minus the mutual
    information, so the estimate is

        H = sum_j H_knn(X_j) - I_rho(X)

    with univariate Kozachenko-Leonenko entropies, from the same one-sort
    pass as :func:`mi_knn`, and the Spearman-based mutual information at
    floor ``z``. ``mi``, when given, is that rho estimate already computed
    at floor ``z`` with literal ties, and is used instead of computing it
    again. Returns ``math.inf`` if a marginal entropy diverges.
    """
    m = ensure_data_matrix(x)
    parts = _marginal_entropies(m, k)
    if any(math.isinf(h) for h in parts):
        return math.inf
    if mi is None:
        mi = estimate_mi(m, EstimatorConfig(EstimatorKind.RHO, z=z))
    return float(sum(parts) - mi.value)

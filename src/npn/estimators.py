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
from scipy.spatial import cKDTree

from .errors import (
    DomainError,
    InsufficientSamples,
    NotPositiveDefinite,
    SingularScatter,
)
from .matrix_core import as_correlation, as_symmetric, cholesky_logdet, sym_eigen
from .rank_stats import (
    TiePolicy,
    ensure_data_matrix,
    kendall_matrix,
    latent_from_rank_corr,
    sigma_g,
    spearman_matrix,
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
    eigenvalue yields an infinite estimate.
    """
    mat = as_symmetric(shat)
    if z < 0.0:
        raise DomainError(f"regularization floor z must be >= 0, got {z}")
    eig = sym_eigen(mat)
    w = eig.eigenvalues
    lam_min = float(w[-1])
    if z == 0.0 and lam_min <= 0.0:
        return MiEstimate(value=math.inf, lambda_min=lam_min, clamped=0)
    clamped = int(np.sum(w < z))
    logdet = float(np.sum(np.log(np.maximum(w, z))))
    return MiEstimate(value=-0.5 * logdet, lambda_min=lam_min, clamped=clamped)


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
    n, d = m.shape
    if n <= d:
        raise SingularScatter(f"Gaussian plug-in needs n > D, got n={n}, D={d}")
    if d == 1:
        return MiEstimate(value=0.0, estimator=EstimatorKind.GAUSSIAN_PLUGIN)
    # Compared, not subtracted: np.std underflows to 0 at tiny scales and
    # np.ptp overflows at huge ones.
    if np.any(np.min(m, axis=0) == np.max(m, axis=0)):
        raise SingularScatter("constant column makes the scatter singular")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.cov(m, rowvar=False, bias=True)
    if not np.all(np.isfinite(cov)):
        raise SingularScatter("empirical covariance overflows the float range")
    try:
        logdet = cholesky_logdet(cov)
    except NotPositiveDefinite as exc:
        raise SingularScatter(f"empirical covariance is singular: {exc}") from exc
    value = -0.5 * (logdet - plugin_logdet_bias(n, d))
    return MiEstimate(value=value, estimator=EstimatorKind.GAUSSIAN_PLUGIN)


def estimate_mi(x, cfg: EstimatorConfig) -> MiEstimate:
    """Dispatch to the estimator selected by ``cfg``.

    The rank-based kinds (gauss, rho, tau) depend on the data only through
    columnwise ranks, so strictly increasing marginal transforms leave
    their output bit-identical.
    """
    m = ensure_data_matrix(x)
    if m.shape[0] < 2:
        raise DomainError("mutual information estimation needs n >= 2")
    kind = cfg.kind
    if kind is EstimatorKind.GAUSSIAN_PLUGIN:
        return mi_gaussian_plugin(m)
    if kind is EstimatorKind.KNN:
        return mi_knn(m, cfg.k)
    if kind is EstimatorKind.GAUSS:
        scatter = sigma_g(m, cfg.tie_policy)
        est = mi_from_latent(scatter, cfg.effective_z)
        return dataclasses.replace(
            est,
            estimator=kind,
            diag_second_moment=float(np.mean(np.diag(scatter))),
        )
    if kind is EstimatorKind.RHO:
        latent = latent_from_rank_corr(spearman_matrix(m, cfg.tie_policy), "spearman")
    elif kind is EstimatorKind.TAU:
        latent = latent_from_rank_corr(kendall_matrix(m), "kendall")
    else:
        raise DomainError(f"unknown estimator kind {kind!r}")
    est = mi_from_latent(latent, cfg.effective_z)
    return dataclasses.replace(est, estimator=kind)


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
    n, d = m.shape
    if d == 1:
        return _marginal_entropies(m, k)[0]
    _check_knn_shape(n, k)
    _, counts = np.unique(m, axis=0, return_counts=True)
    if int(counts.max()) >= max(k, 2):
        return math.inf
    e = np.frexp(np.max(np.abs(m)))[1]
    unit = np.ldexp(m, -e)
    dist, _ = cKDTree(unit).query(unit, k=k + 1)
    return _kl_entropy(n, d, k, np.ldexp(dist[:, k], e))


def _marginal_entropies(m: np.ndarray, k: int) -> list[float]:
    """:func:`knn_entropy` of every column of ``m``, from one sort per column.

    In one dimension a point and its k nearest others are k + 1
    consecutive sorted values, so eps_i is the smallest reach from i over
    the k + 1 windows of that length that contain it. The reach is an
    absolute difference. A KD-tree's distance sqrt(d * d) is the same
    float wherever d * d neither underflows nor overflows, and the reach
    stays exact at scales where it would.
    """
    n, d = m.shape
    _check_knn_shape(n, k)
    order = np.argsort(m, axis=0)
    s = np.take_along_axis(m, order, axis=0)
    # A run of max(k, 2) equal sorted values is the tree path's duplicate rule.
    dup = np.any(s[max(k, 2) - 1:] == s[: n - max(k, 2) + 1], axis=0)
    pad = np.full((k, d), np.inf)
    padded = np.concatenate((-pad, s, pad))
    reach = np.full((n, d), np.inf)
    # A difference past the float range is inf, as a tree's distance is.
    with np.errstate(over="ignore"):
        for j in range(k + 1):
            # Window of sorted positions [p - j, p - j + k] around position p.
            below = s - padded[k - j:k - j + n]
            above = padded[2 * k - j:2 * k - j + n] - s
            np.minimum(reach, np.maximum(below, above), out=reach)
    eps = np.empty((d, n))
    eps[np.arange(d)[:, None], order.T] = reach.T
    return [math.inf if dup[j] else _kl_entropy(n, 1, k, eps[j]) for j in range(d)]


def mi_knn(x, k: int = DEFAULT_K) -> MiEstimate:
    """Nonparametric mutual information via the entropy decomposition.

    Returns sum_j H(X_j) - H(X) with every entropy a Kozachenko-Leonenko
    estimate: the marginals from one sort per column, bit-identical to
    :func:`knn_entropy` on each column, and the joint from
    :func:`knn_entropy`'s tree. The estimate is flagged infinite as soon as
    any component diverges.
    """
    m = ensure_data_matrix(x)
    parts = _marginal_entropies(m, k)
    joint = knn_entropy(m, k)
    if math.isinf(joint) or any(math.isinf(h) for h in parts):
        return MiEstimate(value=math.inf, estimator=EstimatorKind.KNN)
    return MiEstimate(value=float(sum(parts) - joint), estimator=EstimatorKind.KNN)


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

"""Reference estimators built from NumPy/SciPy primitives, apart from npn.

Each one recomputes an ``estimate_mi`` kind from its definition:

* ``gaussian`` - ``slogdet`` of the centred covariance (divisor n) with the
  exact Wishart bias term from ``scipy.special.digamma``;
* ``gauss``    - ``ndtri`` of max-ranks / (n + 1), uncentred second moments;
* ``rho``      - Pearson correlation of ``rankdata(method="max")`` ranks,
  mapped through 2 sin(pi r / 6);
* ``tau``      - ``kendalltau`` tau-b rescaled to tau-a with tie counts,
  mapped through sin(pi t / 2);
* ``knn``      - Kozachenko-Leonenko entropies from brute-force distances;

and the floored log-determinant from ``eigvalsh``. ``compare`` returns one
message per disagreement beyond a relative 1e-9.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, ndtri
from scipy.stats import kendalltau, rankdata

RTOL = 1e-9
_CHUNK_BYTES = 32 << 20


def mi_floored(s: np.ndarray, z: float) -> float:
    """-1/2 log det of ``s`` with eigenvalues raised to ``z`` (none if z = 0)."""
    w = np.linalg.eigvalsh(s)
    if z == 0.0:
        return math.inf if w[0] <= 0.0 else -0.5 * float(np.sum(np.log(w)))
    return -0.5 * float(np.sum(np.log(np.maximum(w, z))))


def true_mi(sigma: np.ndarray) -> float:
    return -0.5 * float(np.linalg.slogdet(sigma)[1])


def gaussian_plugin(x: np.ndarray) -> float:
    n, d = x.shape
    logdet = np.linalg.slogdet(np.cov(x, rowvar=False, bias=True))[1]
    bias = sum(digamma((n - j) / 2.0) - math.log(n / 2.0) for j in range(1, d + 1))
    return -0.5 * float(logdet - bias)


def gauss(x: np.ndarray) -> float:
    n = x.shape[0]
    g = ndtri(rankdata(x, method="max", axis=0) / (n + 1.0))
    return mi_floored(g.T @ g / n, 0.0)


def rho(x: np.ndarray, z: float) -> float:
    r = np.corrcoef(rankdata(x, method="max", axis=0), rowvar=False)
    s = 2.0 * np.sin(np.pi * r / 6.0)
    np.fill_diagonal(s, 1.0)
    return mi_floored(s, z)


def _tied_pairs(v: np.ndarray) -> int:
    _, counts = np.unique(v, return_counts=True)
    return int(np.sum(counts * (counts - 1) // 2))


def tau(x: np.ndarray, z: float) -> float:
    n, d = x.shape
    n0 = n * (n - 1) // 2
    ties = [_tied_pairs(x[:, j]) for j in range(d)]
    s = np.eye(d)
    for j in range(d):
        for k in range(j + 1, d):
            tau_b = kendalltau(x[:, j], x[:, k], method="asymptotic").statistic
            tau_a = tau_b * math.sqrt((n0 - ties[j]) * (n0 - ties[k])) / n0
            s[j, k] = s[k, j] = math.sin(math.pi * tau_a / 2.0)
    return mi_floored(s, z)


def knn_entropy(p: np.ndarray, k: int) -> float:
    """Kozachenko-Leonenko entropy with the k-th neighbour from all distances."""
    n, d = p.shape
    rows = max(1, _CHUNK_BYTES // (8 * n * d))
    eps = np.empty(n)
    for start in range(0, n, rows):
        diff = p[start:start + rows, None, :] - p[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        # Column k of the sorted row skips the point itself at distance 0.
        eps[start:start + rows] = np.partition(dist, k, axis=1)[:, k]
    if np.any(eps <= 0.0):
        return math.inf
    log_ball = (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)
    return float(digamma(n) - digamma(k) + log_ball + (d / n) * np.sum(np.log(eps)))


def knn(x: np.ndarray, k: int) -> float:
    parts = [knn_entropy(x[:, [j]], k) for j in range(x.shape[1])]
    return float(sum(parts) - knn_entropy(x, k))


def estimates(x: np.ndarray, z: float, k: int, kinds) -> dict[str, float]:
    """Reference value of each estimator kind named in ``kinds``."""
    table = {
        "gaussian": lambda: gaussian_plugin(x),
        "gauss": lambda: gauss(x),
        "rho": lambda: rho(x, z),
        "tau": lambda: tau(x, z),
        "knn": lambda: knn(x, k),
    }
    return {kind: table[kind]() for kind in kinds}


def compare(label: str, got: dict[str, float], want: dict[str, float]) -> list[str]:
    """Messages for every key whose values differ beyond ``RTOL``."""
    failures = []
    for key, expected in want.items():
        value = got.get(key)
        if not isinstance(value, float):
            failures.append(f"reference: {label} {key} is {value!r}, reference gives {expected!r}")
            continue
        same_inf = math.isinf(value) and value == expected
        if not same_inf and not abs(value - expected) <= RTOL * max(1.0, abs(expected)):
            failures.append(f"reference: {label} {key} is {value!r}, reference gives {expected!r}")
    return failures

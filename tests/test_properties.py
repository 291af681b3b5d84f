"""Property tests: every public entry point returns a value or raises NpnError.

Inputs are small matrices (n 0..5, D 0..4, sometimes 1-d) of every dtype a
caller might pass: float, int, bool, complex, text and object, with NaN and
infinities mixed in and magnitudes scaled to 1e-300, 1e300 and up to
1.5e308, where sums overflow. The eigenvalue floors z of ``mi_from_latent``
and ``project_to_cone`` are any float, NaN or an infinity. A library
call may return or raise an ``NpnError``; anything else (a NumPy or SciPy
exception, a RuntimeWarning, which the test settings turn into an error,
or a NaN result) fails. The finite cases are also written as CSV files and
run through ``npn estimate``, which must exit 0-3 and never raise.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from npn.cli import main
from npn.errors import NpnError
from npn.estimators import (
    EstimatorConfig,
    EstimatorKind,
    entropy_npn,
    estimate_mi,
    knn_entropy,
    mi_from_latent,
    mi_gaussian_plugin,
    mi_knn,
)
from npn.matrix_core import project_to_cone
from npn.rank_stats import (
    TiePolicy,
    compute_ranks,
    ensure_data_matrix,
    gaussianize,
    kendall_matrix,
    sigma_g,
    spearman_matrix,
)

DTYPES = ("float", "int", "bool", "complex", "str", "object")
SCALES = (1.0, 1e300, -1e300, 1e-300, 5e307, -5e307)
CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-3.0, 3.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
FLOORS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def data(draw):
    """(array, its values as float64 when all are finite, else None)."""
    n, d = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(DTYPES))
    if kind == "int":
        x = np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n * d,
                                   max_size=n * d)), dtype=np.int64)
    elif kind == "bool":
        x = np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)), dtype=bool)
    else:
        scale = draw(st.sampled_from(SCALES))
        x = np.array([draw(CELLS) * scale for _ in range(n * d)], dtype=np.float64)
    x = x.reshape(n, d)
    finite = x.astype(np.float64) if np.all(np.isfinite(x)) else None
    if kind == "complex":
        x = x + 1j
    elif kind == "str":
        x = x.astype(str)
    elif kind == "object":
        x = x.astype(object)
        if x.size and draw(st.booleans()):
            x.flat[draw(st.integers(0, x.size - 1))] = draw(st.sampled_from([None, "a", [1.0]]))
    if d == 1 and draw(st.booleans()):
        x = x[:, 0]
    return x, finite


def _entry_points(policy: TiePolicy, k: int, z: float):
    calls = [(f"estimate_mi {kind.value}",
              lambda x, kind=kind: estimate_mi(x, EstimatorConfig(kind, k=k, tie_policy=policy)))
             for kind in EstimatorKind]
    return calls + [
        ("compute_ranks", lambda x: compute_ranks(x, policy)),
        ("gaussianize", lambda x: gaussianize(x, policy)),
        ("sigma_g", lambda x: sigma_g(x, policy)),
        ("spearman_matrix", lambda x: spearman_matrix(x, policy)),
        ("kendall_matrix", kendall_matrix),
        ("knn_entropy", lambda x: knn_entropy(x, k)),
        ("mi_knn", lambda x: mi_knn(x, k)),
        ("entropy_npn", lambda x: entropy_npn(x, k=k)),
        ("mi_gaussian_plugin", mi_gaussian_plugin),
        ("mi_from_latent", lambda x: mi_from_latent(x, z)),
        ("project_to_cone", lambda x: project_to_cone(x, z)),
        ("ensure_data_matrix", ensure_data_matrix),
    ]


def _has_nan(out) -> bool:
    value = getattr(out, "value", out)
    return bool(np.any(np.isnan(np.asarray(value, dtype=np.float64))))


@settings(max_examples=300, deadline=None)
@given(data(), st.sampled_from(TiePolicy), st.integers(1, 3), FLOORS)
def test_every_entry_point_returns_or_raises_npn_error(case, policy, k, z):
    x, _ = case
    for name, call in _entry_points(policy, k, z):
        try:
            out = call(x)
        except NpnError:
            continue
        assert not _has_nan(out), name


@settings(max_examples=60, deadline=None)
@given(data(), st.sampled_from(TiePolicy))
def test_estimate_command_exits_with_a_code_on_finite_data(case, policy):
    _, finite = case
    if finite is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "x.csv", Path(tmp) / "out.json"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in finite.tolist()))
        argv = ["estimate", "--input", str(path), "--estimators", "gaussian,gauss,rho,tau,knn",
                "--entropy", "--ties", policy.value, "--out", str(out)]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)

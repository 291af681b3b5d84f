"""Tests for the symmetric-matrix kernels.

Fixed expected values were computed independently: closed-form log
determinants for 2x2 correlation matrices, and eigenvalue identities for
diagonal and rank-one-perturbed matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npn.errors import DomainError, NotPositiveDefinite
from npn.matrix_core import (
    as_correlation,
    as_symmetric,
    bandable_eigen_bounds,
    cholesky_logdet,
    is_bandable,
    project_to_cone,
    sym_eigen,
)


def random_correlation(rng, d):
    """Normalized Wishart draw, almost surely positive definite."""
    g = rng.standard_normal((d, d + 2))
    w = g @ g.T
    scale = 1.0 / np.sqrt(np.diag(w))
    return as_symmetric(w * scale[:, None] * scale[None, :])


class TestAsSymmetric:
    def test_already_symmetric_unchanged(self):
        a = np.array([[1.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(as_symmetric(a), a)

    def test_averages_off_diagonal(self):
        a = np.array([[1.0, 0.4], [0.2, 1.0]])
        out = as_symmetric(a)
        assert out[0, 1] == out[1, 0] == pytest.approx(0.3)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            as_symmetric(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_symmetric(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_mean_of_entries_whose_sum_overflows(self):
        # (a + a.T) / 2 overflowed in the add, a RuntimeWarning
        out = as_symmetric([[1e308, 1e308], [1.5e308, 1e308]])
        mean = 1e308 / 2 + 1.5e308 / 2
        np.testing.assert_array_equal(out, [[1e308, mean], [mean, 1e308]])

    @given(st.lists(st.floats(-1.7e308, 1.7e308), min_size=9, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_plain_mean_bits_wherever_the_sum_is_finite(self, cells):
        a = np.array(cells).reshape(3, 3)
        with np.errstate(over="ignore"):
            plain = (a + a.T) / 2.0
        out, finite = as_symmetric(a), np.isfinite(plain)
        np.testing.assert_array_equal(out[finite], plain[finite])
        assert np.all(np.isfinite(out))


class TestAsCorrelation:
    def test_sets_diagonal_exactly_one(self):
        a = np.array([[1.0 + 5e-13, 0.5], [0.5, 1.0 - 5e-13]])
        out = as_correlation(a)
        assert out[0, 0] == 1.0 and out[1, 1] == 1.0

    def test_rejects_bad_diagonal(self):
        with pytest.raises(DomainError):
            as_correlation(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_entry_above_one(self):
        with pytest.raises(DomainError):
            as_correlation(np.array([[1.0, 1.5], [1.5, 1.0]]))


class TestCholeskyLogdet:
    def test_identity_is_zero(self):
        assert cholesky_logdet(np.eye(4)) == 0.0

    def test_two_by_two_closed_form(self):
        # det [[1, s], [s, 1]] = 1 - s^2; at s = 0.6 the log is log(0.64).
        a = np.array([[1.0, 0.6], [0.6, 1.0]])
        np.testing.assert_allclose(
            cholesky_logdet(a), -0.44628710262841951, rtol=0, atol=1e-15
        )

    def test_singular_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_logdet(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_matches_eigenvalue_route(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_correlation(rng, 8)
            w, _ = sym_eigen(a)
            np.testing.assert_allclose(
                cholesky_logdet(a), np.sum(np.log(w)), rtol=0, atol=1e-8
            )


class TestSymEigen:
    def test_diagonal_matrix(self):
        w, q = sym_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [3.0, 1.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.abs(q), np.eye(2), rtol=0, atol=1e-14)

    def test_two_by_two_correlation(self):
        # eigenvalues of [[1, s], [s, 1]] are 1 + s and 1 - s
        w, _ = sym_eigen(np.array([[1.0, 0.25], [0.25, 1.0]]))
        np.testing.assert_allclose(w, [1.25, 0.75], rtol=0, atol=1e-14)

    def test_order_is_nonincreasing(self):
        rng = np.random.default_rng(11)
        a = as_symmetric(rng.standard_normal((6, 6)))
        w, _ = sym_eigen(a)
        assert np.all(np.diff(w) <= 0)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = as_symmetric(rng.standard_normal((8, 8)))
            w, q = sym_eigen(a)
            np.testing.assert_allclose(q @ np.diag(w) @ q.T, a, rtol=0, atol=1e-9)
            np.testing.assert_allclose(q.T @ q, np.eye(8), rtol=0, atol=1e-9)


class TestProjectToCone:
    def test_rejects_nonpositive_floor(self):
        with pytest.raises(DomainError):
            project_to_cone(np.eye(2), 0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_floor(self, z):
        # inf gave a matrix of NaN
        with pytest.raises(DomainError, match="positive and finite"):
            project_to_cone(np.eye(2), z)

    def test_overflowing_projection_is_a_domain_error(self):
        # the largest eigenvalue, 2e308, is past the float range
        with pytest.raises(DomainError, match="overflows"):
            project_to_cone(np.full((2, 2), 1e308), 1e-3)

    def test_representable_projection_near_the_float_limit(self):
        # z I is representable; symmetrizing it overflowed the sum z + z
        np.testing.assert_array_equal(project_to_cone(np.eye(2), 1.7e308), 1.7e308 * np.eye(2))

    def test_fixed_point_when_already_inside(self):
        a = np.array([[1.0, 0.2], [0.2, 1.0]])
        np.testing.assert_array_equal(project_to_cone(a, 1e-3), a)

    def test_clamps_negative_eigenvalue(self):
        out = project_to_cone(np.diag([2.0, -1.0]), 0.1)
        np.testing.assert_allclose(out, np.diag([2.0, 0.1]), rtol=0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = as_symmetric(rng.standard_normal((5, 5)))
            once = project_to_cone(a, 0.05)
            twice = project_to_cone(once, 0.05)
            np.testing.assert_allclose(twice, once, rtol=0, atol=1e-10)

    def test_projection_is_closest_in_cone(self):
        # Frobenius optimality against random feasible competitors.
        rng = np.random.default_rng(23)
        z = 0.05
        for _ in range(5):
            a = as_symmetric(rng.standard_normal((3, 3)))
            proj = project_to_cone(a, z)
            base = np.linalg.norm(a - proj)
            for _ in range(200):
                qmat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                lam = z + rng.exponential(1.0, size=3)
                b = qmat @ np.diag(lam) @ qmat.T
                assert base <= np.linalg.norm(a - b) + 1e-12

    def test_log_determinant_never_decreases(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = random_correlation(rng, 5)
            w, _ = sym_eigen(a)
            z = float(w[-1]) * 3.0
            out = project_to_cone(a, z)
            assert cholesky_logdet(out) >= cholesky_logdet(a) - 1e-10


class TestBandableBounds:
    def test_reference_point(self):
        lo, hi = bandable_eigen_bounds(0.2, 10)
        np.testing.assert_allclose(lo, 0.5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hi, 1.5, rtol=0, atol=1e-12)

    def test_small_c_limit(self):
        lo, hi = bandable_eigen_bounds(1e-9, 30)
        np.testing.assert_allclose([lo, hi], [1.0, 1.0], rtol=0, atol=1e-8)

    def test_lower_bound_vanishes_at_one_third(self):
        lo, _ = bandable_eigen_bounds(1.0 / 3.0, 5)
        assert abs(lo) < 1e-12

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_c_outside_open_interval(self, c):
        with pytest.raises(DomainError):
            bandable_eigen_bounds(c, 5)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            bandable_eigen_bounds(0.2, 0)

    def test_geometric_envelope_eigenvalue_bound(self):
        # The exact envelope matrix c^{|i-j|} must respect the bounds, with
        # margin, since the bounds come from a geometric-series argument.
        for c in (0.1, 0.2, 0.3):
            for d in (5, 12):
                idx = np.arange(d)
                a = c ** np.abs(idx[:, None] - idx[None, :])
                w = np.linalg.eigvalsh(a)
                lo, hi = bandable_eigen_bounds(c, d)
                assert w.min() >= lo - 1e-9
                assert w.max() <= hi + 1e-9


class TestIsBandable:
    def test_identity_always_qualifies(self):
        assert is_bandable(np.eye(6), 0.2)

    def test_boundary_envelope_qualifies(self):
        idx = np.arange(5)
        a = 0.3 ** np.abs(idx[:, None] - idx[None, :])
        assert is_bandable(a, 0.3)

    def test_detects_violation(self):
        a = np.eye(4)
        a[0, 2] = a[2, 0] = 0.2 * 0.2 + 0.1
        assert not is_bandable(a, 0.2)


@st.composite
def symmetric_matrices(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(seed)
    return as_symmetric(rng.standard_normal((d, d)))


@given(symmetric_matrices(), st.floats(1e-4, 0.5))
@settings(max_examples=60, deadline=None)
def test_projection_lands_in_cone(a, z):
    """Every projected matrix has smallest eigenvalue at least the floor."""
    out = project_to_cone(a, z)
    assert np.linalg.eigvalsh(out).min() >= z - 1e-10


@given(symmetric_matrices())
@settings(max_examples=40, deadline=None)
def test_cholesky_agrees_with_eigen_when_definite(a):
    """Both log-determinant routes agree whenever the input is definite."""
    w = np.linalg.eigvalsh(a)
    if w.min() <= 1e-8:
        a = a + (1e-6 - w.min()) * np.eye(a.shape[0])
    wd, _ = sym_eigen(a)
    np.testing.assert_allclose(
        cholesky_logdet(a), np.sum(np.log(wd)), rtol=0, atol=1e-8
    )

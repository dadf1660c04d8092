"""Factorization and spectral projection contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecsim.errors import MatrixError
from qrecsim.linalg import (
    ORTHO_TOL,
    RECONSTRUCT_TOL,
    SvdFactorization,
    as_matrix,
    svd,
)

from oracles import (
    band_indices,
    jacobi_eigenvalues,
    power_iteration_top_sigma,
    project_threshold,
    project_threshold_family,
    pseudo_project_row,
    threshold_indices,
    truncate_top_k,
)


def random_matrix(seed: int, m: int = 6, n: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(m, n))


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        assert f.rank == 3
        assert np.allclose(f.sigma, 1.0)

    def test_diag_descending(self):
        f = svd(np.diag([1.0, 3.0, 2.0]))
        assert np.array_equal(f.sigma, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        f = svd(a)
        assert f.rank == 1
        assert f.sigma[0] == pytest.approx(np.sqrt(5.0 * 25.0), abs=1e-12)

    def test_zero_matrix_rank_zero(self):
        f = svd(np.zeros((3, 4)))
        assert f.rank == 0
        assert f.reconstruct().shape == (3, 4)

    def test_sigma_squared_matches_jacobi_oracle(self):
        # Independent eigendecomposition of A^T A by cyclic Jacobi.
        a = random_matrix(7, 5, 4)
        f = svd(a)
        lam = jacobi_eigenvalues(a.T @ a)
        assert np.sum(f.sigma**2) == pytest.approx(np.sum(np.abs(lam)), rel=1e-10)
        assert f.sigma**2 == pytest.approx(lam[: f.rank], rel=1e-9)
        assert np.sum(f.sigma**2) == pytest.approx(np.linalg.norm(a) ** 2, abs=1e-10)

    def test_top_sigma_matches_power_iteration(self):
        a = random_matrix(11, 8, 8)
        assert svd(a).sigma[0] == pytest.approx(power_iteration_top_sigma(a), rel=1e-9)

    def test_orthonormal_and_reconstructs(self):
        for seed in range(10):
            a = random_matrix(seed, 7, 5)
            f = svd(a)
            m, n = a.shape
            assert np.max(np.abs(f.u.T @ f.u - np.eye(m))) <= ORTHO_TOL
            assert np.max(np.abs(f.v.T @ f.v - np.eye(n))) <= ORTHO_TOL
            err = np.linalg.norm(f.reconstruct() - a)
            assert err <= RECONSTRUCT_TOL * np.linalg.norm(a)

    def test_deterministic(self):
        a = random_matrix(3)
        f1, f2 = svd(a), svd(a.copy())
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_rejects_bad_input(self):
        with pytest.raises(MatrixError):
            svd(np.array([1.0, 2.0]))
        with pytest.raises(MatrixError):
            svd(np.array([[np.nan, 1.0]]))
        with pytest.raises(MatrixError):
            as_matrix(np.empty((0, 3)))

    def test_singular_value_beyond_rank_is_zero(self):
        f = svd(np.outer([1.0, 1.0], [1.0, 1.0, 1.0]))
        assert f.singular_value(0) > 0
        assert f.singular_value(1) == 0.0
        assert f.singular_value(2) == 0.0
        with pytest.raises(MatrixError):
            f.singular_value(3)


class TestTruncate:
    def test_k_zero_is_zero_matrix(self):
        a = random_matrix(0)
        assert np.array_equal(truncate_top_k(svd(a), 0), np.zeros_like(a))

    def test_k_at_least_rank_recovers(self):
        a = random_matrix(1)
        f = svd(a)
        assert np.allclose(truncate_top_k(f, f.rank), a, atol=1e-12)
        assert np.allclose(truncate_top_k(f, f.rank + 3), a, atol=1e-12)

    def test_eckart_young_optimality(self):
        # The rank-k truncation must beat random rank-k competitors.
        rng = np.random.default_rng(42)
        a = rng.normal(size=(6, 6))
        f = svd(a)
        best = np.linalg.norm(a - truncate_top_k(f, 2))
        assert best == pytest.approx(np.sqrt(np.sum(f.sigma[2:] ** 2)), rel=1e-12)
        for _ in range(25):
            cand = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 6))
            assert np.linalg.norm(a - cand) >= best - 1e-9

    def test_negative_k_rejected(self):
        with pytest.raises(MatrixError):
            truncate_top_k(svd(np.eye(2)), -1)


class TestProjectThreshold:
    def setup_method(self):
        u, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
        v, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(4, 4)))
        self.sigma = np.array([4.0, 3.0, 2.0, 1.0])
        self.a = (u * self.sigma) @ v.T
        self.f = svd(self.a)

    def test_zero_threshold_keeps_all(self):
        assert np.allclose(project_threshold(self.f, 0.0), self.a, atol=1e-10)

    def test_above_top_keeps_none(self):
        assert np.allclose(project_threshold(self.f, 4.5), 0.0)

    def test_tie_at_threshold_is_kept(self):
        kept = threshold_indices(self.f, float(self.f.sigma[1]))
        assert kept == [0, 1]

    def test_matches_manual_sum(self):
        got = project_threshold(self.f, 2.5)
        manual = sum(
            self.f.sigma[i] * np.outer(self.f.u[:, i], self.f.v[:, i]) for i in range(2)
        )
        assert np.allclose(got, manual, atol=1e-12)

    def test_family_band_membership(self):
        # sigma = 3.5, kappa such that the band [2.1, 3.5) holds index 1 (3.0).
        kappa = 0.4
        band = band_indices(self.f, 3.5, kappa)
        assert band == [1]
        full = project_threshold_family(self.f, 3.5, kappa, band_selector=[1])
        none = project_threshold_family(self.f, 3.5, kappa, band_selector=[])
        assert np.allclose(full, self.f.reconstruct([0, 1]), atol=1e-12)
        assert np.allclose(none, self.f.reconstruct([0]), atol=1e-12)

    def test_family_lower_edge_inclusive(self):
        # sigma_i exactly at (1-kappa) sigma is admissible.
        f = svd(np.diag([4.0, 2.0]))
        assert band_indices(f, 4.0, 0.5) == [1]

    def test_selector_outside_band_rejected(self):
        with pytest.raises(MatrixError):
            project_threshold_family(self.f, 3.5, 0.4, band_selector=[3])

    def test_family_includes_threshold_and_degrades_to_threshold(self):
        kappa = 0.4
        assert np.allclose(
            project_threshold_family(self.f, 2.5, kappa, []),
            project_threshold(self.f, 2.5),
            atol=1e-12,
        )


class TestPseudoProjectRow:
    def setup_method(self):
        self.a = random_matrix(9, 6, 5)
        self.f = svd(self.a)

    def test_idempotent(self):
        x = random_matrix(10, 1, 5)[0]
        sigma = float(self.f.sigma[2])
        once = pseudo_project_row(self.f, x, sigma, 0.3)
        twice = pseudo_project_row(self.f, once, sigma, 0.3)
        assert np.max(np.abs(twice - once)) <= 1e-10

    def test_projects_onto_kept_span(self):
        sigma = float(self.f.sigma[1])
        y = pseudo_project_row(self.f, random_matrix(11, 1, 5)[0], sigma, 0.3)
        kept = threshold_indices(self.f, sigma)
        basis = self.f.v[:, kept]
        assert np.allclose(basis @ (basis.T @ y), y, atol=1e-12)

    def test_keep_everything_is_identity(self):
        x = random_matrix(12, 1, 5)[0]
        y = pseudo_project_row(self.f, x, float(self.f.sigma[-1]), 0.3)
        assert np.allclose(y, x, atol=1e-10)

    def test_row_of_matrix_projected_matches_matrix_projection(self):
        sigma = float(self.f.sigma[1])
        proj = project_threshold(self.f, sigma)
        for i in range(self.a.shape[0]):
            row = pseudo_project_row(self.f, self.a[i], sigma, 0.3)
            assert np.allclose(row, proj[i], atol=1e-9)

    def test_empty_keep_set_gives_zero(self):
        y = pseudo_project_row(self.f, np.ones(5), float(self.f.sigma[0]) * 2.0, 0.3)
        assert np.array_equal(y, np.zeros(5))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    )
)
def test_svd_invariants_property(rows):
    a = np.array(rows)
    f = svd(a)
    assert np.all(np.diff(f.sigma) <= 1e-12)
    assert np.all(f.sigma > 0.0)
    assert np.linalg.norm(f.reconstruct() - a) <= RECONSTRUCT_TOL * max(np.linalg.norm(a), 1.0)


def test_factorization_shape_mismatch_guard():
    f = SvdFactorization(u=np.eye(2), sigma=np.array([1.0]), v=np.eye(3), shape=(2, 3))
    with pytest.raises(MatrixError):
        f.reconstruct([1])

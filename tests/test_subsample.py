"""Subsampling statistics and reconstruction-bound arithmetic."""

import numpy as np
import pytest

from qrecsim.errors import MatrixError
from qrecsim.subsample import (
    bound_threshold_family_error,
    derive_params,
    entry_bound,
    noise_scale,
    noise_scale_max,
    precondition_satisfied,
    sampling_probability,
    subsample,
)

from oracles import bound_threshold_error


class TestSubsample:
    def test_p_one_is_identity(self):
        a = np.random.default_rng(0).normal(size=(5, 5))
        out = subsample(a, 1.0, np.random.default_rng(1))
        assert np.array_equal(out, a)

    def test_survivors_scaled_exactly(self):
        a = np.full((20, 20), 3.0)
        out = subsample(a, 0.25, np.random.default_rng(2))
        kept = out != 0.0
        assert np.all(out[kept] == 12.0)
        assert 0.1 < kept.mean() < 0.45

    def test_zero_entries_stay_zero(self):
        a = np.zeros((4, 4))
        out = subsample(a, 0.5, np.random.default_rng(3))
        assert np.array_equal(out, a)

    def test_row_major_draw_consumption(self):
        # The mask must equal a per-cell row-major loop over the same stream.
        a = np.arange(1.0, 13.0).reshape(3, 4)
        out = subsample(a, 0.6, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        manual = np.zeros_like(a)
        for i in range(3):
            for j in range(4):
                manual[i, j] = a[i, j] / 0.6 if rng.random() < 0.6 else 0.0
        assert np.array_equal(out, manual)

    def test_seeded_reproducible(self):
        a = np.random.default_rng(4).normal(size=(8, 8))
        x = subsample(a, 0.3, np.random.default_rng(7))
        y = subsample(a, 0.3, np.random.default_rng(7))
        assert np.array_equal(x, y)

    def test_invalid_p(self):
        a = np.ones((2, 2))
        for p in (0.0, -0.1, 1.5, np.nan):
            with pytest.raises(MatrixError):
                subsample(a, p, np.random.default_rng(0))

    def test_unbiased_within_four_se(self):
        # Monte Carlo mean of 10^4 trials against A, entrywise, 4 sigma.
        a = np.array(
            [
                [1.0, -2.0, 0.5, 3.0],
                [2.0, 1.5, -1.0, 0.25],
                [-0.5, 4.0, 2.0, 1.0],
                [3.0, -3.0, 1.0, -2.0],
            ]
        )
        p, trials = 0.3, 10_000
        rng = np.random.default_rng(123)
        total = np.zeros_like(a)
        for _ in range(trials):
            total += subsample(a, p, rng)
        mean = total / trials
        se = np.abs(a) * np.sqrt((1.0 - p) / p) / np.sqrt(trials)
        assert np.all(np.abs(mean - a) <= 4.0 * se)

    def test_norm_inflation_bound(self):
        # ||Ahat||_F^2 <= 2 ||A||_F^2 / p on every trial for +-1 entries.
        rng = np.random.default_rng(55)
        a = np.where(rng.random((32, 32)) < 0.5, 1.0, -1.0)
        p = 0.5
        limit = 2.0 * np.linalg.norm(a) ** 2 / p
        for _ in range(100):
            hat = subsample(a, p, rng)
            assert np.linalg.norm(hat) ** 2 <= limit


class TestDerivations:
    def test_sampling_probability_spot_value(self):
        # 16 * 100 * 1 / (1 * 40)^2 = 1 exactly.
        assert sampling_probability(100, 1.0, 1.0, 40.0) == 1.0

    def test_noise_scale_inverts_probability(self):
        n, b, fro = 64, 2.0, 30.0
        for p in (0.1, 0.5, 0.9, 1.0):
            eta = noise_scale(p, n, b, fro)
            assert sampling_probability(n, b, eta, fro) == pytest.approx(p, rel=1e-12)

    def test_noise_scale_max_hand_value(self):
        # 2 * 16^(1/4) * 0.5^1.5 / (3 * 4^(1/4) * sqrt(10))
        want = 2.0 * 2.0 * 0.5**1.5 / (3.0 * np.sqrt(2.0) * np.sqrt(10.0))
        assert noise_scale_max(16, 2, 0.5, 10.0) == pytest.approx(want, rel=1e-12)

    def test_precondition_equivalence_with_formula_p(self):
        # For unit-bounded entries: formula p <= 1 iff the mass precondition.
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            k = int(rng.integers(1, 5))
            eps = float(rng.uniform(0.05, 0.9))
            fro = float(rng.uniform(1.0, 1e7))
            raw = sampling_probability(n, 1.0, noise_scale_max(n, k, eps, fro), fro)
            assert (raw <= 1.0 + 1e-12) == precondition_satisfied(n, k, eps, fro)

    def test_derive_params_consistency(self):
        a = np.random.default_rng(8).normal(size=(12, 10))
        sub = derive_params(a, 3, 0.2, p=0.4)
        assert sub.p == 0.4
        assert sub.b == entry_bound(a)
        assert sub.eta == pytest.approx(
            noise_scale(0.4, 10, sub.b, np.linalg.norm(a)), rel=1e-12
        )
        assert sub.mu == pytest.approx(0.2**2 * 0.4 / 2.0, rel=1e-12)
        assert sub.status in ("precondition-satisfied", "extrapolated")

    def test_derive_params_formula_p_clamped(self):
        a = np.random.default_rng(9).normal(size=(6, 6))
        sub = derive_params(a, 2, 0.3)
        assert sub.formula_p > 1.0  # desk-scale mass: formula blows past 1
        assert sub.p == 1.0
        assert not sub.precondition_ok
        assert sub.status == "extrapolated"

    def test_derive_params_validation(self):
        a = np.ones((3, 3))
        with pytest.raises(MatrixError):
            derive_params(a, 0, 0.2)
        with pytest.raises(MatrixError):
            derive_params(a, 2, 1.2)
        with pytest.raises(MatrixError):
            derive_params(a, 2, 0.2, p=0.0)
        with pytest.raises(MatrixError):
            derive_params(np.zeros((2, 2)), 1, 0.5)


class TestBounds:
    def test_plain_bound_hand_arithmetic(self):
        # err + (3 sqrt(.04) 16^(1/4) / .0016^(1/4) + sqrt(.0016/.64)) * 10
        err_k, eta, k, mu, p, fro = 0.5, 0.04, 16, 0.0016, 0.64, 10.0
        spread = 3.0 * 0.2 * 2.0 / 0.2
        tail = 0.05
        want = err_k + (spread + tail) * fro
        assert bound_threshold_error(err_k, eta, k, mu, p, fro) == pytest.approx(
            want, rel=1e-12
        )

    def test_plain_bound_degenerate_is_err_k(self):
        assert bound_threshold_error(0.7, 0.0, 3, 0.0, 0.5, 9.0) == 0.7

    def test_family_bound_hand_arithmetic(self):
        err_k, eta, k, mu, p, kappa, fro = 0.5, 0.04, 16, 0.0016, 0.64, 0.75, 10.0
        spread = (3.0 * 0.2 * 2.0 / 0.2) * (2.0 + 2.0)
        tail = 2.25 * np.sqrt(2.0 * 0.0016 / 0.64)
        want = 1.5 + (spread + tail) * fro
        assert bound_threshold_family_error(
            err_k, eta, k, mu, p, kappa, fro
        ) == pytest.approx(want, rel=1e-12)

    def test_family_bound_nine_eps_collapse(self):
        # At eta = eta_max, mu = eps^2 p / 2, p from the formula, kappa = 1/3,
        # and err_k = eps ||A||_F the bound is 8.89 eps ||A||_F <= 9 eps ||A||_F.
        for n, k, eps, fro in [(64, 2, 0.5, 1e4), (256, 4, 0.2, 1e7), (16, 1, 0.8, 500.0)]:
            eta = noise_scale_max(n, k, eps, fro)
            p = sampling_probability(n, 1.0, eta, fro)
            assert p <= 1.0 or fro < 36 * np.sqrt(2 * n * k) / eps**3
            mu = eps * eps * p / 2.0
            got = bound_threshold_family_error(eps * fro, eta, k, mu, p, 1.0 / 3.0, fro)
            assert got <= 9.0 * eps * fro
            ratio = (got - 3.0 * eps * fro) / (eps * fro)
            assert ratio == pytest.approx(2.0 + np.sqrt(1.5) + 8.0 / 3.0, rel=1e-9)

    def test_bound_validation(self):
        with pytest.raises(MatrixError):
            bound_threshold_error(-0.1, 0.1, 2, 0.01, 0.5, 1.0)
        with pytest.raises(MatrixError):
            bound_threshold_error(0.1, 0.1, 2, 0.0, 0.5, 1.0)
        with pytest.raises(MatrixError):
            bound_threshold_family_error(0.1, 0.1, 2, 0.01, 0.5, 1.5, 1.0)

    def test_eta_monotone_in_p(self):
        etas = [noise_scale(p, 32, 1.0, 20.0) for p in (0.1, 0.3, 0.6, 1.0)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

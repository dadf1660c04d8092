"""Preference models, error-rate bounds, and the recommendation loop."""

import numpy as np
import pytest
from scipy import stats

from qrecsim import recsys
from qrecsim.errors import BoundVacuousError, ColdStartError, MatrixError
from qrecsim.linalg import svd
from qrecsim.qproject import ProjectionParams
from qrecsim.recsys import (
    RecommendContext,
    bad_sample_bound,
    check_bound_params,
    generate_T,
    quantum_typical_user_bound,
    recommendation_sigma,
    typical_set,
    typical_user_bound,
    w_statistic_bound,
)
from qrecsim.rng import choice_cdf

from oracles import bad_mass, calibration_ratio, w_statistic


class TestGenerateT:
    def test_noiseless_rank_at_most_k(self):
        rng = np.random.default_rng(0)
        t = generate_T(40, 30, 3, 0.0, rng)
        assert np.linalg.matrix_rank(t) <= 3
        assert set(np.unique(t)) <= {0.0, 1.0}

    def test_rows_copy_types(self):
        rng = np.random.default_rng(1)
        t = generate_T(50, 20, 2, 0.0, rng)
        distinct = {tuple(row) for row in t}
        assert len(distinct) <= 2
        assert all(any(row) for row in t)  # type rows are redrawn if empty

    def test_deterministic_under_seed(self):
        a = generate_T(10, 10, 2, 0.3, np.random.default_rng(7))
        b = generate_T(10, 10, 2, 0.3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_flip_rate_matches_noise(self):
        rng = np.random.default_rng(2)
        noise = 0.2
        base = generate_T(100, 100, 1, 0.0, np.random.default_rng(3))
        # Rebuild with the same type/assignment stream, then noise applies.
        rng = np.random.default_rng(3)
        noisy = generate_T(100, 100, 1, noise, rng)
        flipped = np.mean(base != noisy)
        se = np.sqrt(noise * (1.0 - noise) / base.size)
        assert abs(flipped - noise) <= 4.0 * se

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MatrixError):
            generate_T(0, 5, 1, 0.0, rng)
        with pytest.raises(MatrixError):
            generate_T(5, 5, 0, 0.0, rng)
        with pytest.raises(MatrixError):
            generate_T(5, 5, 1, 1.0, rng)
        with pytest.raises(MatrixError):
            generate_T(5, 5, 1, -0.1, rng)
        for shape in ((4, 4, 2.5), (4.0, 4, 2), (4, True, 2), (4, 4, "2")):
            with pytest.raises(MatrixError, match="must be an integer"):
                generate_T(*shape, 0.0, rng)


class TestBounds:
    def test_bad_sample_bound_values(self):
        assert bad_sample_bound(0.1) == pytest.approx(1.0 / 81.0, rel=1e-12)
        assert bad_sample_bound(0.5) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(MatrixError):
            bad_sample_bound(0.0)
        with pytest.raises(MatrixError):
            bad_sample_bound(1.0)

    def test_typical_user_bound_formula(self):
        eps, gamma, delta, zeta = 1e-3, 0.1, 0.1, 0.1
        margin = 1.0 / np.sqrt(1.0 + gamma) - eps / np.sqrt(delta)
        want = (eps * (1.0 + eps) / (1.0 - eps)) ** 2 / (
            margin**2 * (1.0 - delta - zeta)
        )
        assert typical_user_bound(eps, gamma, delta, zeta) == pytest.approx(
            want, rel=1e-12
        )

    def test_typical_user_bound_vacuous(self):
        # eps/sqrt(delta) >= 1/sqrt(1+gamma) closes the margin.
        with pytest.raises(BoundVacuousError):
            typical_user_bound(0.5, 0.1, 0.1, 0.1)

    def test_quantum_bound_is_plain_bound_at_nine_eps(self):
        assert quantum_typical_user_bound(0.01, 0.1, 0.8, 0.1) == pytest.approx(
            typical_user_bound(0.09, 0.1, 0.8, 0.1), rel=1e-12
        )
        with pytest.raises(BoundVacuousError):
            quantum_typical_user_bound(0.2, 0.1, 0.8, 0.1)  # 9 eps > 1

    def test_w_statistic_bound_formula(self):
        eps, gamma, delta, zeta, xi = 0.01, 0.1, 0.8, 0.05, 0.1
        margin = 1.0 / np.sqrt(1.0 + gamma) - 9.0 * eps / np.sqrt(delta)
        want = (1.0 + eps) ** 2 / (xi * (1.0 - delta - zeta) * margin**2)
        assert w_statistic_bound(eps, gamma, delta, zeta, xi) == pytest.approx(
            want, rel=1e-12
        )
        with pytest.raises(BoundVacuousError):
            w_statistic_bound(0.2, 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(MatrixError):
            w_statistic_bound(0.01, 0.1, 0.1, 0.1, 0.0)

    def test_calibration_ratio_small_eps(self):
        ratio = calibration_ratio(1e-3, 0.1, 0.1, 0.1)
        assert ratio == pytest.approx(1.3869, abs=5e-4)
        assert ratio <= 1.5

    def test_recommendation_sigma_arithmetic(self):
        assert recommendation_sigma(0.1, 0.5, 4, 2.0) == pytest.approx(0.05, rel=1e-12)
        with pytest.raises(MatrixError):
            recommendation_sigma(0.1, 0.0, 4, 2.0)
        with pytest.raises(MatrixError):
            recommendation_sigma(0.1, 0.5, 0, 2.0)
        with pytest.raises(MatrixError):
            recommendation_sigma(0.1, 0.5, 4, 0.0)


class TestBoundParams:
    """``check_bound_params``: the one domain that the three typical-user
    bounds and the experiment config share."""

    @pytest.mark.parametrize(
        "gamma, delta, zeta, message",
        [
            (0.0, 0.1, 0.1, "gamma must be a number in (0, 1), got 0.0"),
            (1.5, 0.1, 0.1, "gamma must be a number in (0, 1), got 1.5"),
            (0.1, 1.0, 0.1, "delta must be a number in (0, 1), got 1.0"),
            (0.1, 0.1, float("nan"), "zeta must be a number in (0, 1), got nan"),
            (0.1, 0.6, 0.5, "delta + zeta must be < 1, got 0.6 + 0.5"),
            (0.1, 0.5, 0.5, "delta + zeta must be < 1, got 0.5 + 0.5"),
        ],
    )
    def test_every_bound_rejects_outside_the_domain(self, gamma, delta, zeta, message):
        for call in (
            lambda: check_bound_params(gamma, delta, zeta),
            lambda: typical_user_bound(0.01, gamma, delta, zeta),
            lambda: quantum_typical_user_bound(0.01, gamma, delta, zeta),
            lambda: w_statistic_bound(0.01, gamma, delta, zeta, 0.1),
        ):
            with pytest.raises(MatrixError) as info:
                call()
            assert str(info.value) == message

    def test_eps_and_xi_are_fractions_too(self):
        check_bound_params(0.1, 0.5, 0.49, eps=0.5, xi=0.5)
        with pytest.raises(MatrixError, match=r"^xi must be a number in \(0, 1\), got 1\.0$"):
            w_statistic_bound(0.01, 0.1, 0.1, 0.1, 1.0)
        for bound in (typical_user_bound, quantum_typical_user_bound):
            with pytest.raises(MatrixError, match=r"^eps must be a number in \(0, 1\), got 1$"):
                bound(1, 0.1, 0.1, 0.1)


class TestTypicalSet:
    def test_manual_scan(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=(20, 6))
        gamma = 0.25
        mask = typical_set(t, gamma)
        row_sq = np.sum(t * t, axis=1)
        avg = row_sq.sum() / 20.0
        for i in range(20):
            want = avg / (1.0 + gamma) <= row_sq[i] <= avg * (1.0 + gamma)
            assert mask[i] == want

    def test_inclusive_edges(self):
        # Row norms 3 and 1 with gamma = 0.5: avg 2, upper edge exactly 3.
        t = np.array([[np.sqrt(3.0), 0.0], [1.0, 0.0]])
        mask = typical_set(t, 0.5)
        assert mask.tolist() == [True, False]

    def test_uniform_rows_all_typical(self):
        t = np.ones((8, 4))
        assert typical_set(t, 0.01).all()

    def test_gamma_validation(self):
        with pytest.raises(MatrixError):
            typical_set(np.ones((2, 2)), 0.0)


class TestSurrogateStats:
    def test_bad_mass_hand_value(self):
        surrogate = np.array([[1.0, 2.0], [0.0, 3.0]])
        truth = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert bad_mass(surrogate, truth) == pytest.approx(4.0 / 14.0, rel=1e-12)

    def test_bad_mass_validation(self):
        with pytest.raises(MatrixError):
            bad_mass(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(MatrixError):
            bad_mass(np.zeros((2, 2)), np.ones((2, 2)))

    def test_w_statistic_values(self):
        assert w_statistic([3.0, 4.0], [3.0, 0.0]) == pytest.approx(25.0 / 9.0)
        assert w_statistic([1.0, 0.0], [0.0, 0.0]) == np.inf
        with pytest.raises(ColdStartError):
            w_statistic([0.0, 0.0], [1.0, 0.0])


class TestRecommendContext:
    def planted(self, seed: int = 11, m: int = 32, n: int = 16, k: int = 2):
        t = generate_T(m, n, k, 0.0, np.random.default_rng(seed))
        f = svd(t)
        sigma = float((f.sigma[k - 1] + (f.sigma[k] if f.rank > k else 0.0)) / 2.0)
        return t, ProjectionParams(sigma=max(sigma, 1e-6))

    def test_cold_start_raises(self):
        t = np.array([[1.0, 1.0], [0.0, 0.0]])
        ctx = RecommendContext(t, ProjectionParams(sigma=1.0))
        with pytest.raises(ColdStartError):
            ctx.user_state(1)

    def test_user_index_validation(self):
        t, params = self.planted()
        ctx = RecommendContext(t, params)
        with pytest.raises(MatrixError):
            ctx.user_state(99)

    def test_threshold_above_norm_rejected(self):
        with pytest.raises(MatrixError):
            RecommendContext(np.eye(2), ProjectionParams(sigma=5.0))

    def test_keep_everything_reproduces_row_distribution(self):
        # A tiny threshold keeps the full spectrum: the projection is the
        # identity and measurement must follow row ell-2 probabilities.
        rng = np.random.default_rng(21)
        t = generate_T(8, 8, 2, 0.2, np.random.default_rng(20))
        ctx = RecommendContext(t, ProjectionParams(sigma=1e-9))
        probs, beta_sq, state = ctx.user_state(0)
        row = t[0]
        want = row**2 / np.sum(row**2)
        assert beta_sq == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(probs - want)) <= 1e-10
        draws = np.array([ctx.recommend(0, rng).product for _ in range(4000)])
        counts = np.bincount(draws, minlength=8)
        expected = want * 4000
        keep = expected >= 5.0
        chi = stats.chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
        assert chi.pvalue > 0.01

    def test_noiseless_planted_recommends_only_liked_products(self):
        t, params = self.planted(seed=13)
        ctx = RecommendContext(t, params)
        rng = np.random.default_rng(2)
        for user in range(0, 32, 4):
            for _ in range(30):
                out = ctx.recommend(user, rng)
                assert t[user, out.product] == 1.0, (user, out.product)

    def test_outcome_bookkeeping_and_w(self):
        t, params = self.planted(seed=17)
        ctx = RecommendContext(t, params)
        probs, beta_sq, state = ctx.user_state(3)
        rng = np.random.default_rng(3)
        outs = [ctx.recommend(3, rng) for _ in range(600)]
        assert all(o.user == 3 for o in outs)
        assert all(o.beta_sq == pytest.approx(beta_sq, abs=1e-12) for o in outs)
        assert 1.0 / outs[0].beta_sq == pytest.approx(1.0 / beta_sq, rel=1e-12)
        # Projection pseudo-row has norm beta * ||row||, so the direct
        # statistic agrees with 1 / beta^2.
        row = t[3]
        projected = state * np.sqrt(beta_sq) * np.linalg.norm(row)
        assert w_statistic(row, projected) == pytest.approx(1.0 / outs[0].beta_sq, rel=1e-9)
        mean_iter = float(np.mean([o.iterations for o in outs]))
        assert abs(mean_iter - 1.0 / beta_sq) <= 0.2 * (1.0 / beta_sq) + 0.05

    def test_recommend_wrapper_and_context_reuse(self):
        t, params = self.planted(seed=23)
        ctx = RecommendContext(t, params)
        a = RecommendContext(t, params).recommend(5, np.random.default_rng(9))
        b = ctx.recommend(5, np.random.default_rng(9))
        assert (a.user, a.product, a.iterations) == (b.user, b.product, b.iterations)

    def test_sampled_distribution_matches_projected_state(self):
        t, params = self.planted(seed=29, m=24, n=12)
        ctx = RecommendContext(t, params)
        probs, _, _ = ctx.user_state(1)
        rng = np.random.default_rng(31)
        draws = np.array([ctx.recommend(1, rng).product for _ in range(6000)])
        counts = np.bincount(draws, minlength=12)
        expected = probs * 6000
        keep = expected >= 5.0
        chi = stats.chisquare(
            counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum()
        )
        assert chi.pvalue > 0.01
        assert counts[~keep].sum() <= np.ceil(expected[~keep].sum() + 4 * np.sqrt(6000))


class TestRecommendDraws:
    """The per-user draw kernel against the retry loop plus ``rng.choice``."""

    def test_cached_cdf_matches_choice_bit_for_bit(self):
        t = generate_T(40, 24, 3, 0.1, np.random.default_rng(41))
        params = ProjectionParams(sigma=0.2 * np.linalg.norm(t))
        ctx = RecommendContext(t, params)
        users = [u for u in range(40) if t[u].any()][:5]
        cached, sequential = np.random.default_rng(7), np.random.default_rng(7)
        for k in range(3000):
            user = users[k % len(users)]
            probs, beta_sq, _ = ctx.user_state(user)
            out = ctx.recommend(user, cached)
            attempt = 1
            while not sequential.random() < beta_sq:
                attempt += 1
            product = int(sequential.choice(t.shape[1], p=probs))
            assert (out.iterations, out.product) == (attempt, product)
        assert cached.random() == sequential.random()

    def test_second_recommend_builds_no_cdf(self, monkeypatch):
        built = []
        real = recsys.choice_cdf

        def counting(p):
            built.append(len(p))
            return real(p)

        monkeypatch.setattr(recsys, "choice_cdf", counting)
        t = generate_T(16, 12, 2, 0.1, np.random.default_rng(5))
        ctx = RecommendContext(t, ProjectionParams(sigma=0.2 * np.linalg.norm(t)))
        rng = np.random.default_rng(6)
        ctx.recommend(3, rng)
        assert built == [12]
        ctx.recommend(3, rng)
        assert built == [12]
        ctx.recommend(4, rng)
        assert built == [12, 12]

    def test_choice_cdf_checks_and_normalizes_p_as_choice_does(self):
        for p in ([0.5, 0.6], [1.5, -0.5]):
            with pytest.raises(MatrixError, match="non-negative and sum to 1"):
                choice_cdf(np.array(p))
        # A sum 1e-9 short of 1 passes the check; the table still ends at 1.
        cdf = choice_cdf(np.array([0.25, 0.75 - 1e-9]))
        assert cdf[-1] == 1.0
        assert cdf[0] == 0.25 / (1.0 - 1e-9)

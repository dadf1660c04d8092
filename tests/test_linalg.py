"""Factorization and spectral projection contracts."""

import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecsim import linalg, recsys
from qrecsim.cli import EXIT_OK, main
from qrecsim.errors import MatrixError
from qrecsim.experiment import ExperimentConfig, run_experiment
from qrecsim.linalg import (
    RITZ_BLOCK,
    RITZ_DEGREE,
    RITZ_OVERSAMPLE,
    RITZ_SWEEPS,
    SvdFactorization,
    as_matrix,
    as_vector,
    svd,
    unit_vector,
)
from qrecsim.qproject import DEFAULT_KAPPA, ProjectionParams, keep_floor, kept_mask, threshold_project
from qrecsim.qsim import WalkOperator, sve
from qrecsim.recsys import RecommendContext, generate_T, recommendation_sigma
from qrecsim.rng import stream
from qrecsim.store import MatrixStore

import test_acceptance as acceptance

from oracles import (
    RECONSTRUCT_TOL,
    band_indices,
    jacobi_eigenvalues,
    power_iteration_top_sigma,
    project_threshold,
    project_threshold_family,
    pseudo_project_row,
    reconstruct,
    threshold_indices,
    truncate_top_k,
)

# Orthonormality tolerance for a factorization's V.
ORTHO_TOL = 1e-10


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
        assert reconstruct(np.zeros((3, 4)), f).shape == (3, 4)

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
        # V is complete whether A is tall, square or wide, and its columns
        # beyond the rank span the kernel of A.
        for seed, (m, n) in enumerate([(7, 5)] * 10 + [(5, 9), (7, 7), (40, 3), (3, 40)]):
            a = random_matrix(seed, m, n)
            f = svd(a)
            assert f.v.shape == (n, n)
            assert np.max(np.abs(f.v.T @ f.v - np.eye(n))) <= ORTHO_TOL
            assert np.max(np.abs(a @ f.v[:, f.rank :]), initial=0.0) <= 1e-12 * np.linalg.norm(a)
            err = np.linalg.norm(reconstruct(a, f) - a)
            assert err <= RECONSTRUCT_TOL * np.linalg.norm(a)

    def test_deterministic(self):
        a = random_matrix(3)
        f1, f2 = svd(a), svd(a.copy())
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_rejects_bad_input(self):
        with pytest.raises(MatrixError):
            svd(np.array([1.0, 2.0]))
        with pytest.raises(MatrixError):
            svd(np.array([[np.nan, 1.0]]))
        with pytest.raises(MatrixError):
            as_matrix(np.empty((0, 3)))

    @pytest.mark.parametrize(
        "convert, value",
        [
            (svd, [[1.0, 2.0], [3.0]]),
            (svd, [["a"]]),
            (as_matrix, object()),
            (as_vector, [1.0, [2.0]]),
            (as_vector, ["b"]),
            (as_vector, object()),
        ],
    )
    def test_unconvertible_input_is_matrix_error(self, convert, value):
        with pytest.raises(MatrixError, match="cannot convert"):
            convert(value)

    def test_floor_and_top_together_rejected(self):
        with pytest.raises(MatrixError, match="not both"):
            svd(random_matrix(2, 30, 20), floor=1.0, top=2)

    def test_singular_value_beyond_rank_is_zero(self):
        a = np.outer([1.0, 1.0], [1.0, 1.0, 1.0])
        full, values = svd(a), svd(a, top=1)
        assert values.v is None
        for f in (full, values):
            sigma = f.column_sigma()
            assert sigma.shape == (3,) and sigma[0] > 0
            assert sigma[1:].tolist() == [0.0, 0.0]


class TestTruncate:
    def test_k_zero_is_zero_matrix(self):
        a = random_matrix(0)
        assert np.array_equal(truncate_top_k(a, svd(a), 0), np.zeros_like(a))

    def test_k_at_least_rank_recovers(self):
        a = random_matrix(1)
        f = svd(a)
        assert np.allclose(truncate_top_k(a, f, f.rank), a, atol=1e-12)
        assert np.allclose(truncate_top_k(a, f, f.rank + 3), a, atol=1e-12)

    def test_eckart_young_optimality(self):
        # The rank-k truncation must beat random rank-k competitors.
        rng = np.random.default_rng(42)
        a = rng.normal(size=(6, 6))
        f = svd(a)
        best = np.linalg.norm(a - truncate_top_k(a, f, 2))
        assert best == pytest.approx(np.sqrt(np.sum(f.sigma[2:] ** 2)), rel=1e-12)
        for _ in range(25):
            cand = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 6))
            assert np.linalg.norm(a - cand) >= best - 1e-9

    def test_negative_k_rejected(self):
        with pytest.raises(MatrixError):
            truncate_top_k(np.eye(2), svd(np.eye(2)), -1)


class TestProjectThreshold:
    def setup_method(self):
        u, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
        v, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(4, 4)))
        self.sigma = np.array([4.0, 3.0, 2.0, 1.0])
        self.a = (u * self.sigma) @ v.T
        self.f = svd(self.a)

    def test_zero_threshold_keeps_all(self):
        assert np.allclose(project_threshold(self.a, self.f, 0.0), self.a, atol=1e-10)

    def test_above_top_keeps_none(self):
        assert np.allclose(project_threshold(self.a, self.f, 4.5), 0.0)

    def test_tie_at_threshold_is_kept(self):
        kept = threshold_indices(self.f, float(self.f.sigma[1]))
        assert kept == [0, 1]

    def test_matches_manual_sum(self):
        got = project_threshold(self.a, self.f, 2.5)
        # sigma_i u_i = A v_i: the kept terms without any U.
        manual = sum(np.outer(self.a @ self.f.v[:, i], self.f.v[:, i]) for i in range(2))
        assert np.allclose(got, manual, atol=1e-12)

    def test_family_band_membership(self):
        # sigma = 3.5, kappa such that the band [2.1, 3.5) holds index 1 (3.0).
        kappa = 0.4
        band = band_indices(self.f, 3.5, kappa)
        assert band == [1]
        full = project_threshold_family(self.a, self.f, 3.5, kappa, band_selector=[1])
        none = project_threshold_family(self.a, self.f, 3.5, kappa, band_selector=[])
        assert np.allclose(full, reconstruct(self.a, self.f, [0, 1]), atol=1e-12)
        assert np.allclose(none, reconstruct(self.a, self.f, [0]), atol=1e-12)

    def test_family_lower_edge_inclusive(self):
        # sigma_i exactly at (1-kappa) sigma is admissible.
        f = svd(np.diag([4.0, 2.0]))
        assert band_indices(f, 4.0, 0.5) == [1]

    def test_selector_outside_band_rejected(self):
        with pytest.raises(MatrixError):
            project_threshold_family(self.a, self.f, 3.5, 0.4, band_selector=[3])

    def test_family_includes_threshold_and_degrades_to_threshold(self):
        kappa = 0.4
        assert np.allclose(
            project_threshold_family(self.a, self.f, 2.5, kappa, []),
            project_threshold(self.a, self.f, 2.5),
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
        proj = project_threshold(self.a, self.f, sigma)
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
    assert np.linalg.norm(reconstruct(a, f) - a) <= RECONSTRUCT_TOL * max(np.linalg.norm(a), 1.0)


INTAKE_CONSUMERS = {
    "store": MatrixStore.from_dense,
    "circuit-project": lambda a: threshold_project(
        a, np.ones(2), ProjectionParams(sigma=0.5), np.random.default_rng(0), path="circuit"
    ),
    "circuit-sve": lambda a: sve(a, np.ones(2), 0.1, path="circuit", rng=np.random.default_rng(0)),
    "context": lambda a: RecommendContext(a, ProjectionParams(sigma=0.5)),
    "exact-project": lambda a: threshold_project(
        a, np.ones(2), ProjectionParams(sigma=0.5), np.random.default_rng(0)
    ),
    "exact-sve": lambda a: sve(a, np.ones(2), 0.1),
    "walk": WalkOperator.from_dense,
}


@pytest.mark.parametrize("consumer", sorted(INTAKE_CONSUMERS))
@pytest.mark.parametrize(
    "value",
    [[[1.0, 2.0], [3.0]], [[np.nan, 1.0], [1.0, 1.0]], [[np.inf, 1.0], [1.0, 1.0]],
     [1.0, 2.0], object(), [[1e154, 1e154], [1.0, 0.0]]],
    ids=["ragged", "nan", "inf", "1-d", "object", "overflow"],
)
def test_dense_intake_is_as_matrix(consumer, value):
    # The store, the context, both paths' projections and estimates, and the
    # walk take a dense matrix through as_matrix: bad input raises its
    # MatrixError, with no numpy warning first. Finite entries whose
    # ||A||_F^2 overflows get the store's message.
    with pytest.raises(MatrixError) as want:
        as_matrix(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixError) as got:
            INTAKE_CONSUMERS[consumer](value)
    assert str(got.value) == str(want.value)


def test_matrix_whose_frobenius_square_overflows_rejected():
    with pytest.raises(MatrixError, match=r"^entries too large: \|\|A\|\|_F\^2 overflows$"):
        as_matrix(np.array([[1e154, 1e154], [1.0, 0.0]]))
    as_matrix(np.array([[1e154, 1.0], [1.0, 0.0]]))  # 1e308 + 2 is finite


def test_factorization_shape_mismatch_guard():
    f = SvdFactorization(sigma=np.array([1.0]), v=np.eye(3), shape=(2, 3))
    with pytest.raises(MatrixError):
        reconstruct(np.eye(2, 3), f, [1])


# -- reduced factorizations ----------------------------------------------------


def assert_context_matches_oracle(a: np.ndarray, sigma: float, ctx=None) -> RecommendContext:
    """What RecommendContext builds (``ctx``, or a new one) against full
    gesdd: the same kept set, every sigma at or above ``keep_floor`` within
    1e-12 relative, the kept-space projector within 1e-10, and beta^2 of
    every non-empty row within 1e-12."""
    params = ProjectionParams(sigma=sigma)
    ctx = ctx or RecommendContext(a, params)
    want = svd(a)
    kept = kept_mask(want, params)
    assert np.array_equal(np.flatnonzero(ctx.kept), np.flatnonzero(kept))
    above = int(np.sum(want.sigma >= keep_floor(params, np.linalg.norm(a))))
    assert ctx.f.sigma[:above] == pytest.approx(want.sigma[:above], rel=1e-12, abs=0.0)
    v_got, v_want = ctx.v_kept, want.v[:, kept]
    assert np.max(np.abs(v_got @ v_got.T - v_want @ v_want.T), initial=0.0) <= 1e-10
    rows = a[np.any(a != 0.0, axis=1)]
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    beta_got = np.sum((rows @ v_got) ** 2, axis=1)
    beta_want = np.sum((rows @ v_want) ** 2, axis=1)
    assert np.max(np.abs(beta_got - beta_want), initial=0.0) <= 1e-12
    return ctx


def recorded_thresholds(
    monkeypatch, run
) -> list[tuple[np.ndarray, float | None, RecommendContext | None]]:
    """Call ``run()`` and return (matrix, sigma, context) for every ``svd``
    call made by the acceptance suite or a RecommendContext, with the
    threshold of the ``kept_mask`` call that followed it (None when none
    did) and the RecommendContext that made the call (None for the suite's
    own calls)."""
    seen: list[list] = []
    for module in (acceptance, recsys):
        def factor(a, *args, _svd=module.svd, **kwargs):
            seen.append([np.array(a, dtype=np.float64), None, None])
            return _svd(a, *args, **kwargs)

        def mask(f, params, _mask=module.kept_mask):
            seen[-1][1] = params.sigma
            return _mask(f, params)

        monkeypatch.setattr(module, "svd", factor)
        monkeypatch.setattr(module, "kept_mask", mask)

    def build(ctx, *args, _init=RecommendContext.__init__, **kwargs):
        _init(ctx, *args, **kwargs)
        seen[-1][2] = ctx

    monkeypatch.setattr(RecommendContext, "__init__", build)
    run()
    monkeypatch.undo()
    return [tuple(entry) for entry in seen]


def oracle_eps_k(config: ExperimentConfig) -> float:
    """eps_k of the experiment's truth from the full gesdd spectrum."""
    rng = stream(config.seed, "preference")
    truth = generate_T(config.m, config.n, config.k, config.noise, rng)
    s = svd(truth, top=min(truth.shape)).sigma
    return float(np.sqrt(np.sum(s[config.k :] ** 2) / np.sum(s**2)))


def planted_subsample(seed: int, size: int = 256) -> tuple[np.ndarray, float]:
    """A planted 4-type truth kept with p = 1/2 and rescaled, with the
    benchmark's stream threshold sqrt(s_4 s_5)."""
    rng = np.random.default_rng(seed)
    t = generate_T(size, size, 4, 0.05, rng)
    a = np.where(rng.random(t.shape) < 0.5, 2.0 * t, 0.0)
    s = svd(a, top=min(a.shape)).sigma
    return a, float(np.sqrt(s[3] * s[4]))


def took_gesdd(f: SvdFactorization, a: np.ndarray) -> bool:
    """Whether ``f`` is the full factorization ``svd(a)``, bit for bit."""
    want = svd(a)
    same_v = f.v is not None and f.v.shape == want.v.shape and np.array_equal(f.v, want.v)
    return same_v and np.array_equal(f.sigma, want.sigma)


def bench_experiment_seed(seed: int) -> int:
    """The experiment seed perfbench derives from a benchmark seed."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


class TestReducedSvd:
    def test_values_only_matches_oracle(self):
        for seed, (m, n) in enumerate([(7, 5), (5, 7), (64, 64), (40, 90)]):
            a = random_matrix(seed, m, n)
            got, want = svd(a, top=min(m, n)), svd(a)
            assert got.v is None
            assert got.rank == want.rank
            assert got.sigma == pytest.approx(want.sigma, rel=1e-14, abs=0.0)

    def test_noise_free_truth_takes_the_exact_reconstruction_path(self):
        report, _ = run_experiment(
            ExperimentConfig(m=48, n=40, k=3, noise=0.0, users=4, recs_per_user=2, seed=5)
        )
        assert report["instance"]["eps_k"] == 1e-9
        # The mass beyond the top 3 is rounding: gesdd runs instead.
        truth = generate_T(48, 40, 3, 0.0, stream(5, "preference"))
        f = svd(truth, top=3)
        assert f.rest_sq == 0.0
        assert np.array_equal(f.sigma, svd(truth, top=min(truth.shape)).sigma)

    def test_criterion_4_instances(self, monkeypatch):
        seen = recorded_thresholds(
            monkeypatch, acceptance.test_criterion_4_projection_sandwich_and_retries
        )
        assert len(seen) == 500
        for a, sigma, _ in seen:
            assert_context_matches_oracle(a, sigma)

    def test_criterion_6_instances(self, monkeypatch):
        seen = recorded_thresholds(
            monkeypatch, acceptance.test_criterion_6_planted_recommendation_quality
        )
        # 150 planted truths (no threshold of their own: give them the
        # recommendation threshold at p = 1) and the 256 x 256 run's context.
        assert len(seen) == 151 and seen[-1][1] is not None and seen[-1][2] is not None
        for a, sigma, ctx in seen:
            if sigma is None:
                f = svd(a)
                eps_k = np.sqrt(np.sum(f.sigma[4:] ** 2)) / f.frobenius_norm()
                sigma = recommendation_sigma(eps_k, 1.0, 4, f.frobenius_norm())
            assert_context_matches_oracle(a, sigma, ctx)

    @pytest.mark.parametrize("size, seed", [(256, 801), (256, 802), (256, 803), (1024, 801)])
    def test_benchmark_experiment_contexts(self, monkeypatch, size, seed):
        config = ExperimentConfig(m=size, n=size, seed=bench_experiment_seed(seed))
        report = {}
        [(a, sigma, ctx)] = recorded_thresholds(
            monkeypatch, lambda: report.update(run_experiment(config)[0])
        )
        # The experiment's floor sits near 0.05 ||That||_F: far above the
        # Gram route's rounding, so the context never runs gesdd.
        assert 0.02 < (1.0 - DEFAULT_KAPPA) * sigma / np.linalg.norm(a) < 0.1
        assert not took_gesdd(assert_context_matches_oracle(a, sigma, ctx).f, a)
        assert report["instance"]["eps_k"] == pytest.approx(oracle_eps_k(config), rel=1e-12)

    def test_stream_context_takes_the_partial_route(self):
        # The benchmark's stream threshold is at least 0.05 ||A||_F.
        a = generate_T(256, 256, 4, 0.05, np.random.default_rng(3))
        ctx = RecommendContext(a, ProjectionParams(sigma=0.05 * np.linalg.norm(a)))
        assert not took_gesdd(ctx.f, a)
        assert ctx.f.v.shape == (256, ctx.f.rank) and ctx.f.rank < RITZ_BLOCK
        assert ctx.v_kept.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("seed", [901, 902, 903])
    def test_bulk_edge_context_takes_the_partial_route(self, seed):
        # sigma_5 sits within a few percent of (1 - kappa) sigma, so only the
        # grid floor keep_floor, not (1 - kappa) sigma, separates it.
        a, sigma = planted_subsample(seed)
        s5 = svd(a, top=min(a.shape)).sigma[4]
        assert 0.9 < s5 / ((1.0 - DEFAULT_KAPPA) * sigma) < 1.1
        ctx = RecommendContext(a, ProjectionParams(sigma=sigma))
        assert ctx.f.v.shape == (256, ctx.f.rank) and ctx.f.rank < RITZ_BLOCK
        # The oracle's mask is the context's, followed by unresolved Falses.
        want = kept_mask(svd(a), ProjectionParams(sigma=sigma))
        assert np.array_equal(want[: ctx.kept.size], ctx.kept) and not want[ctx.kept.size :].any()
        assert_context_matches_oracle(a, sigma, ctx)

    def test_noise_bulk_context_falls_back_to_eigh(self, monkeypatch):
        # The default 256 x 256 experiment keeps dozens of directions in the
        # noise bulk: the block fills after its first sweep.
        config = ExperimentConfig(m=256, n=256, seed=bench_experiment_seed(801))
        report = {}
        [(a, sigma, ctx)] = recorded_thresholds(
            monkeypatch, lambda: report.update(run_experiment(config)[0])
        )
        assert report["measured"]["kept_rank"] >= RITZ_BLOCK
        assert ctx.f.v.shape == (256, 256)
        assert_context_matches_oracle(a, sigma, ctx)
        assert report["instance"]["eps_k"] == pytest.approx(oracle_eps_k(config), rel=1e-12)

    def test_failed_certificate_falls_back_to_eigh(self):
        # Three singular values 1e-13 relative below the floor: inside the
        # certificate's rounding margin, so the Cholesky factorization fails.
        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        v, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        params = ProjectionParams(sigma=1.5)
        s = np.concatenate([[3.0, 2.0, 1.0, 1.0, 1.0], np.linspace(0.3, 0.01, 35)])
        for _ in range(8):
            s[2:5] = keep_floor(params, np.linalg.norm(s)) * (1.0 - 1e-13)
        a = (u * s) @ v.T
        ctx = RecommendContext(a, params)
        assert ctx.f.v.shape == (40, 40)
        assert ctx.kept.tolist()[:6] == [True, True, False, False, False, False]
        assert_context_matches_oracle(a, 1.5, ctx)

    def test_top_values_match_oracle(self):
        for seed, (m, n, k) in enumerate([(64, 64, 4), (90, 40, 3), (40, 90, 6)]):
            t = generate_T(m, n, k, 0.05, np.random.default_rng(seed))
            got, want = svd(t, top=k), svd(t, top=min(m, n))
            assert got.rank == k and got.v is None
            assert got.sigma == pytest.approx(want.sigma[:k], rel=1e-12, abs=0.0)
            assert got.rest_sq == pytest.approx(np.sum(want.sigma[k:] ** 2), rel=1e-12)

    @pytest.mark.parametrize("m, n, k, kept_rank", [(8, 6, 9, 5), (6, 8, 7, 4)])
    def test_rank_beyond_the_matrix_takes_gesdd(self, monkeypatch, m, n, k, kept_rank):
        config = ExperimentConfig(m=m, n=n, k=k, seed=3, users=3, recs_per_user=2)
        report = {}
        [(a, sigma, ctx)] = recorded_thresholds(
            monkeypatch, lambda: report.update(run_experiment(config)[0])
        )
        assert report["instance"]["eps_k"] == 1e-9
        assert report["measured"]["kept_rank"] == kept_rank
        assert_context_matches_oracle(a, sigma, ctx)

    def test_partial_routes_depend_on_input_bits_alone(self):
        a, sigma = planted_subsample(904)
        floor = keep_floor(ProjectionParams(sigma=sigma), np.linalg.norm(a))
        state = np.random.get_state()
        first, second = svd(a, floor=floor), svd(a.copy(), floor=floor)
        top = [svd(x, top=4) for x in (a, a.copy())]
        after = np.random.get_state()
        assert first.v.shape[1] < a.shape[1] and top[0].rank == 4
        assert np.array_equal(first.sigma, second.sigma) and np.array_equal(first.v, second.v)
        assert np.array_equal(top[0].sigma, top[1].sigma) and top[0].rest_sq == top[1].rest_sq
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]
        assert list(inspect.signature(svd).parameters) == ["a", "floor", "top"]

    def test_tiny_threshold_context_takes_gesdd(self):
        t = generate_T(8, 8, 2, 0.2, np.random.default_rng(20))
        ctx = RecommendContext(t, ProjectionParams(sigma=1e-9))
        assert took_gesdd(ctx.f, t)

    def test_planted_spectrum_below_the_gram_resolution(self):
        # At threshold 2e-8 the floor is ~1.6e-8, where A^T A's rounding
        # (~1e-15) swamps the 3e-8 direction's eigenvalue 9e-16.
        rng = np.random.default_rng(12)
        u, _ = np.linalg.qr(rng.normal(size=(8, 6)))
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = (u * [1.0, 0.5, 1e-6, 3e-8, 1e-9, 0.0]) @ v.T
        ctx = RecommendContext(a, ProjectionParams(sigma=2e-8))
        assert took_gesdd(ctx.f, a)
        assert ctx.kept.tolist() == [True, True, True, True, False, False]
        assert_context_matches_oracle(a, 2e-8, ctx)

    def test_reduced_factorizations_do_not_reconstruct(self):
        a = random_matrix(4, 30, 20)
        for f in (svd(a, top=min(a.shape)), svd(a, floor=0.5 * np.linalg.norm(a))):
            with pytest.raises(MatrixError, match="needs a factorization with a complete V"):
                reconstruct(a, f)

    @pytest.mark.parametrize("m, n", [(30, 20), (20, 30)])
    def test_gram_branch_v_is_complete_and_contiguous(self, m, n):
        # Ten singular values lie above the floor: the block fills and eigh runs.
        a = random_matrix(9, m, n)
        f = svd(a, floor=0.2 * np.linalg.norm(a))
        assert np.sum(svd(a).sigma >= 0.2 * np.linalg.norm(a)) > RITZ_BLOCK
        assert f.v.flags["C_CONTIGUOUS"]
        assert np.max(np.abs(f.v.T @ f.v - np.eye(n))) <= ORTHO_TOL
        assert f.frobenius_norm() == pytest.approx(np.linalg.norm(a), rel=1e-14)
        # The n - m null eigenvalues of a wide A^T A are rounding, not rank.
        assert f.rank == svd(a).rank == min(m, n)


# -- Chebyshev-filtered sweeps ----------------------------------------------------

# Rayleigh-Ritz steps a partial route may take: the first plus as many
# filtered ones as the product budget pays for.
MAX_RITZ_STEPS = 1 + (RITZ_SWEEPS - 1) // RITZ_DEGREE


@pytest.fixture
def ritz_runs(monkeypatch) -> list[dict]:
    """Rayleigh-Ritz steps and products with G of every ``_ritz_sweeps``
    run made while the test runs, one dict per run."""
    runs = []
    sweeps = linalg._ritz_sweeps

    def counted(gram_times, n, block):
        run = {"steps": 0, "products": 0}
        runs.append(run)

        def times(x):
            run["products"] += 1
            return gram_times(x)

        for step in sweeps(times, n, block):
            run["steps"] += 1
            yield step

    monkeypatch.setattr(linalg, "_ritz_sweeps", counted)
    return runs


class TestChebyshevSweeps:
    @pytest.mark.parametrize("seed", [901, 902, 903, 904])
    def test_planted_context_resolves_in_few_steps(self, ritz_runs, seed):
        a, sigma = planted_subsample(seed)
        ctx = RecommendContext(a, ProjectionParams(sigma=sigma))
        assert ctx.f.v.shape == (256, ctx.f.rank) and ctx.f.rank < RITZ_BLOCK
        [run] = ritz_runs
        assert run["steps"] <= 5 and run["products"] <= 15
        assert_context_matches_oracle(a, sigma, ctx)

    @pytest.mark.filterwarnings("error")
    def test_plain_step_guard_below_the_block_width(self, ritz_runs):
        # Rank 3: the floor route's block of RITZ_BLOCK and a top-2 block of
        # 2 + RITZ_OVERSAMPLE both span the range after one sweep, and their
        # smallest Ritz values are rounding.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 30))
        want = svd(a)
        assert want.rank == 3
        for block, gram in ((RITZ_BLOCK, (a.T @ a).__matmul__),
                            (2 + RITZ_OVERSAMPLE, lambda x: a.T @ (a @ x))):
            steps = list(linalg._ritz_sweeps(gram, 30, block))
            # Every step after the first is one plain power step: one product.
            assert len(steps) == MAX_RITZ_STEPS
            assert ritz_runs[-1]["products"] == len(steps) + 1
            for lam, _, _ in steps:
                assert lam[-1] <= linalg.EPS * lam[0]
                assert lam[:3] == pytest.approx(want.sigma**2, rel=1e-12)
        floor = svd(a, floor=0.1 * np.linalg.norm(a))
        assert floor.sigma == pytest.approx(want.sigma, rel=1e-12)
        assert np.abs(floor.v.T @ want.v[:, :3]) == pytest.approx(np.eye(3), abs=1e-10)
        top = svd(a, top=2)
        assert top.sigma == pytest.approx(want.sigma[:2], rel=1e-12)
        assert top.rest_sq == pytest.approx(want.sigma[2] ** 2, rel=1e-12)

    def test_stalled_route_gives_up_within_the_product_budget(self, ritz_runs):
        # sigma_7 sits 5e-7 relative above sigma_8 and 1e-6 above sigma_9,
        # the first value outside the block, with the floor between sigma_7
        # and sigma_8: the seventh Ritz vector cannot converge.
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        v, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        s = np.concatenate([[10.0, 8.0, 6.0, 5.0, 4.0, 3.0, 1.0 + 5e-7, 1.0, 1.0 - 5e-7],
                            np.linspace(0.5, 0.01, 31)])
        a = (u * s) @ v.T
        f = svd(a, floor=1.0 + 1e-8)
        [run] = ritz_runs
        assert run["steps"] == MAX_RITZ_STEPS and run["products"] <= RITZ_SWEEPS + 1
        # The eigh fallback: a complete V, and sigma_7 resolved with the rest.
        assert f.v.shape == (40, 40) and f.rank == 40
        assert f.sigma[:7] == pytest.approx(s[:7], rel=1e-12, abs=0.0)

    def test_stalled_top_values_fall_back_to_gesdd(self, ritz_runs):
        # sigma_2 heads six values within 2.5e-6 relative, and sigma_7, the
        # first outside the top-2 block of 2 + RITZ_OVERSAMPLE, is one of
        # them: sigma_2's residual stalls near 1e-6, far above what would
        # bound the mass left out.
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        v, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        cluster = 1.0 + np.array([5e-7, 0.0, -5e-7, -1e-6, -1.5e-6, -2e-6])
        s = np.concatenate([[10.0], cluster, np.linspace(0.5, 0.01, 33)])
        a = (u * s) @ v.T
        f = svd(a, top=2)
        [run] = ritz_runs
        assert run["steps"] == MAX_RITZ_STEPS and run["products"] <= RITZ_SWEEPS + 1
        # The values-only gesdd, bit for bit: every value, none left out.
        assert f.v is None and f.rest_sq == 0.0
        assert np.array_equal(f.sigma, np.linalg.svd(a, compute_uv=False))


@pytest.mark.filterwarnings("error")
class TestGramScaling:
    """The A^T A routes at any entry scale. Unscaled, 2^500 A made A^T A
    overflow, so eigh ended in numpy's LinAlgError, and at 2^-300 A the Ritz
    residuals' squares flushed to zero, so the certificate accepted an
    unconverged step."""

    # ||A||_F^2 is about 2^16 here: 190 and -205 keep it inside GRAM_RANGE,
    # 195 and -210 take it just outside.
    @pytest.mark.parametrize("e", [500, 195, 190, -205, -210, -300])
    def test_scaled_store_keeps_kept_set_and_probabilities(self, e):
        a, _ = planted_subsample(901)
        sigma = 0.9 * float(np.linalg.svd(a, compute_uv=False)[0])
        base = RecommendContext(MatrixStore.from_dense(a), ProjectionParams(sigma=sigma))
        ctx = RecommendContext(
            MatrixStore.from_dense(np.ldexp(a, e)), ProjectionParams(sigma=np.ldexp(sigma, e))
        )
        assert np.array_equal(ctx.kept, base.kept)
        for user in np.flatnonzero(a.any(axis=1)).tolist():
            got, want = ctx.user_state(user)[0], base.user_state(user)[0]
            assert np.max(np.abs(got - want)) <= 1e-12
        # Powers of two scale exactly: the same route on the same bits.
        assert np.array_equal(ctx.f.sigma, np.ldexp(base.f.sigma, e))
        assert ctx.f.rest_sq == np.ldexp(base.f.rest_sq, 2 * e)
        assert np.array_equal(ctx.f.v, base.f.v)

    def test_cli_recommends_from_a_store_of_huge_entries(self, tmp_path, capsys):
        a, _ = planted_subsample(901)
        sigma = 0.9 * float(np.linalg.svd(a, compute_uv=False)[0])
        user = int(np.flatnonzero(a.any(axis=1))[0])
        products = []
        for e in (0, 500):
            path = tmp_path / f"scaled{e}.qrst"
            MatrixStore.from_dense(np.ldexp(a, e)).save(path)
            code = main(["recommend", str(path), "--user", str(user), "--count", "20",
                         "--sigma", repr(float(np.ldexp(sigma, e))), "--seed", "3"])
            out, err = capsys.readouterr()
            assert (code, err) == (EXIT_OK, "")
            products.append(out.split("products=")[1])
        assert products[0] == products[1]


class TestParameterRules:
    """``check_real`` and ``check_count``: each rule at its edges, and the
    input that no rule takes."""

    NOT_NUMBERS = [True, False, "0.5", None, [0.5], 1j]
    # (rule, accepted, rejected): the values on both sides of each edge.
    EDGES = [
        ("fraction", [5e-324, 0.5, np.nextafter(1.0, 0.0)], [0.0, 1.0, -0.5, np.inf]),
        ("probability", [5e-324, np.float32(0.5), 1], [0.0, np.nextafter(1.0, 2.0), np.inf]),
        ("rate", [0.0, 0.5, np.nextafter(1.0, 0.0)], [-5e-324, 1.0, np.inf]),
        ("positive", [5e-324, 3, np.int64(2), 1e308], [0.0, -1.0, np.inf]),
        ("nonnegative", [0.0, 3, 1e308], [-5e-324, np.inf, -np.inf]),
    ]

    @pytest.mark.parametrize("rule, accepted, rejected", EDGES)
    def test_real_rule_edges(self, rule, accepted, rejected):
        for value in accepted:
            linalg.check_real(rule, x=value)
        for value in rejected + [np.nan] + self.NOT_NUMBERS:
            with pytest.raises(MatrixError) as info:
                linalg.check_real(rule, x=value)
            assert str(info.value) == f"x must be {linalg.REAL_RULES[rule][1]}, got {value!r}"

    def test_every_real_rule_is_tested(self):
        assert sorted(row[0] for row in self.EDGES) == sorted(linalg.REAL_RULES)

    def test_first_bad_value_is_named(self):
        with pytest.raises(MatrixError, match=r"^b must be a number in \(0, 1\), got 2\.0$"):
            linalg.check_real("fraction", a=0.5, b=2.0, c=3.0)
        with pytest.raises(MatrixError, match=r"^c must be an integer in \[1, 3\], got 4$"):
            linalg.check_count(1, 3, a=1, b=3, c=4, d=0)

    def test_count_rule(self):
        linalg.check_count(1, 3, a=1, b=np.int64(3), c=np.uint8(2))
        linalg.check_count(0, seed=10**30)  # no upper limit by default
        for value in (0, 4, 2.0, 2.5, np.float64(2.0), np.nan) + tuple(self.NOT_NUMBERS):
            with pytest.raises(MatrixError) as info:
                linalg.check_count(1, 3, a=1, b=value)
            assert str(info.value) == f"b must be an integer in [1, 3], got {value!r}"
        with pytest.raises(MatrixError, match=r"^s must be an integer in \[0, inf\], got -1$"):
            linalg.check_count(0, s=-1)

    def test_vector_of_a_matrix_rejected(self):
        with pytest.raises(MatrixError, match=r"expected a 1-d vector, got shape \(2, 2\)"):
            as_vector(np.eye(2))

    def test_unit_vector_divides_by_the_norm_numpy_forms(self):
        # Rows and columns of C- and Fortran-ordered matrices: a strided dot
        # sums in another order than the contiguous one np.linalg.norm takes.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 37)) * 10.0 ** rng.integers(-3, 4, (5, 37))
        for x in (a[2], np.asfortranarray(a)[2], a[:, 3], np.array([1e154, 0.0, -1.0])):
            assert unit_vector(x, x.size).tobytes() == (x / np.linalg.norm(x)).tobytes()
        for zero in ([0.0, -0.0], [1e-170, -1e-170]):  # squares that underflow
            with pytest.raises(MatrixError, match="^cannot normalize the zero vector$"):
                unit_vector(zero, 2)

    def test_only_the_checkers_test_number_types(self):
        # Every other module names a rule instead of restating it.
        for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            for kind in ("Integral", "Real"):
                count = text.count(f"not isinstance(value, {kind})")
                assert count == (path.name == "linalg.py"), (path.name, kind)
                assert path.name == "linalg.py" or f"import {kind}" not in text

"""Threshold projection: kept sets, retry loop, and both execution paths."""

import numpy as np
import pytest

from qrecsim.errors import MatrixError, ProjectionEmptyError, RegisterCapError
from qrecsim.linalg import svd, unit_vector
from qrecsim.qproject import (
    BETA_SQ_FLOOR,
    ProjectionParams,
    default_max_iterations,
    estimated_spectrum,
    exact_kept_components,
    kept_mask,
    kept_state,
    projection_grid,
    threshold_project,
)
from qrecsim.qsim import REGISTER_CAP, PhaseGrid, WalkOperator, boost_rounds, sve_circuit
from qrecsim.rng import DEFAULT_SEED
from qrecsim.store import MatrixStore

from oracles import (
    band_indices,
    circuit_projection_law,
    expected_iterations,
    folded_median_law,
    merged_chi_pvalue,
    pseudo_project_row,
    threshold_indices,
)

# diag(3, 1) with sigma = 2, kappa = 1/3: the top direction clears the
# threshold, the other sits below the band, and x gives beta^2 = 0.3 exactly.
GAP = np.diag([3.0, 1.0])
GAP_PARAMS = ProjectionParams(sigma=2.0)
GAP_X = np.array([np.sqrt(0.3), np.sqrt(0.7)])


def random_matrix(seed: int, m: int = 6, n: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    while np.any(np.linalg.norm(a, axis=1) == 0.0):
        a = rng.normal(size=(m, n))
    return a


def disconnected_instance() -> tuple[np.ndarray, ProjectionParams, int]:
    """Two decoupled 3x3 blocks with rows and columns shuffled, a threshold
    that keeps exactly the strong block, and a user from the weak block.

    That user's overlap with the kept span is zero in exact arithmetic but
    rounds to about 1e-32 on both paths.
    """
    rng = np.random.default_rng(4)
    a = np.zeros((6, 6))
    a[:3, :3] = 3.0 * rng.normal(size=(3, 3))
    a[3:, 3:] = 0.3 * rng.normal(size=(3, 3))
    rows, cols = rng.permutation(6), rng.permutation(6)
    a = a[rows][:, cols]
    sigma = 0.9 * float(np.linalg.svd(a, compute_uv=False)[2])
    return a, ProjectionParams(sigma=sigma), int(np.flatnonzero(rows >= 3)[0])


class TestParams:
    def test_cut_and_precision(self):
        p = ProjectionParams(sigma=2.0, kappa=1.0 / 3.0)
        assert p.cut == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert p.precision(np.sqrt(10.0)) == pytest.approx(
            (1.0 / 6.0) * 2.0 / np.sqrt(10.0), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(MatrixError):
            ProjectionParams(sigma=0.0)
        with pytest.raises(MatrixError):
            ProjectionParams(sigma=-1.0)
        with pytest.raises(MatrixError):
            ProjectionParams(sigma=1.0, kappa=0.0)
        with pytest.raises(MatrixError):
            ProjectionParams(sigma=1.0, kappa=1.0)
        with pytest.raises(MatrixError):
            ProjectionParams(sigma=1.0, max_iterations=0)
        # A fractional cap used to fail inside range(), and True ran one attempt.
        for cap in (2.5, True, 3.0, "3"):
            with pytest.raises(MatrixError, match="max_iterations must be an integer"):
                ProjectionParams(sigma=1.0, max_iterations=cap)
        assert ProjectionParams(sigma=1.0, max_iterations=np.int64(3)).retry_limit(2, 0.5) == 3

    def test_retry_budget(self):
        assert default_max_iterations(2, 0.3) == int(np.ceil((np.log(2) + 7.0) / 0.3))
        assert default_max_iterations(100, 0.0) == int(np.ceil(np.log(100) + 7.0))
        # Rounding residue of a vanishing overlap takes the bare budget too.
        assert default_max_iterations(100, 1e-32) == int(np.ceil(np.log(100) + 7.0))
        assert default_max_iterations(100, BETA_SQ_FLOOR) == int(np.ceil(np.log(100) + 7.0))

    def test_expected_iterations(self):
        assert expected_iterations(0.3) == pytest.approx(10.0 / 3.0, rel=1e-15)
        assert expected_iterations(1.0) == 1.0
        with pytest.raises(MatrixError):
            expected_iterations(0.0)
        with pytest.raises(MatrixError):
            expected_iterations(1.5)


class TestKeptSet:
    def test_estimates_within_band_precision(self):
        f = svd(GAP)
        est = estimated_spectrum(f, GAP_PARAMS)
        # Precision (kappa/2) sigma = 1/3 in absolute sigma units.
        assert np.max(np.abs(est - np.array([3.0, 1.0]))) <= 1.0 / 3.0

    def test_flag_rule_keeps_the_cut_itself(self):
        params = ProjectionParams(sigma=1.0)
        below, cut, above = np.nextafter(params.cut, 0.0), params.cut, np.nextafter(params.cut, 2.0)
        assert params.keeps(np.array([below, cut, above])).tolist() == [False, True, True]

    def test_gap_instance_mask(self):
        mask = kept_mask(svd(GAP), GAP_PARAMS)
        assert mask.tolist() == [True, False]

    def test_threshold_above_norm_rejected(self):
        with pytest.raises(MatrixError):
            estimated_spectrum(svd(GAP), ProjectionParams(sigma=4.0))

    def test_success_probability_exact_value(self):
        f = svd(GAP)
        v_kept = f.v[:, kept_mask(f, GAP_PARAMS)]
        beta_sq = kept_state(v_kept, v_kept.T @ unit_vector(GAP_X, 2))[0]
        assert beta_sq == pytest.approx(0.3, abs=1e-12)

    def test_sandwich_on_random_matrices(self):
        # Kept set always contains {sigma_i >= sigma} and never reaches
        # below (1 - kappa) sigma.
        for seed in range(30):
            a = random_matrix(seed)
            f = svd(a)
            sigma = float((f.sigma[0] + f.sigma[-1]) / 2.0)
            params = ProjectionParams(sigma=sigma)
            mask = kept_mask(f, params)
            kept = {i for i in range(6) if mask[i]}
            must = set(threshold_indices(f, sigma))
            allowed = must | set(band_indices(f, sigma, params.kappa))
            assert must <= kept <= allowed, (seed, must, kept, allowed)

    def test_band_interior_stays_inside_sandwich(self):
        f = svd(np.diag([3.0, 1.75, 1.0]))
        params = ProjectionParams(sigma=2.0)
        mask = kept_mask(f, params)
        assert mask[0] and not mask[2]  # middle value 1.75 may go either way

    def test_component_bookkeeping(self):
        comps, alpha, kept = exact_kept_components(svd(GAP), GAP_X, GAP_PARAMS)
        assert [c.index for c in comps] == [0, 1]
        assert comps[0].kept and not comps[1].kept
        assert comps[0].amplitude == pytest.approx(np.sqrt(0.3), abs=1e-12)
        assert comps[1].amplitude == pytest.approx(np.sqrt(0.7), abs=1e-12)
        assert comps[0].sigma == pytest.approx(3.0, rel=1e-12)
        assert float(np.sum(alpha[kept] ** 2)) == pytest.approx(0.3, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(MatrixError):
            exact_kept_components(svd(GAP), np.zeros(2), GAP_PARAMS)


class TestExactPath:
    def test_gap_instance_output(self):
        rng = np.random.default_rng(0)
        out = threshold_project(GAP, GAP_X, GAP_PARAMS, rng)
        assert out.beta_sq == pytest.approx(0.3, abs=1e-12)
        assert np.allclose(out.state, [1.0, 0.0], atol=1e-12)
        assert out.kept_indices() == [0]

    def test_matches_subspace_projection_oracle(self):
        for seed in range(10):
            a = random_matrix(seed + 200, 5, 5)
            f = svd(a)
            sigma = float(f.sigma[1])  # keep at least the top direction
            params = ProjectionParams(sigma=sigma)
            x = np.random.default_rng(seed).normal(size=5)
            mask = kept_mask(f, params)
            band = set(band_indices(f, sigma, params.kappa))
            selector = [i for i in range(5) if mask[i] and i in band]
            want = pseudo_project_row(f, x, sigma, params.kappa, selector)
            want = want / np.linalg.norm(want)
            out = threshold_project(f, x, params, np.random.default_rng(1))
            fid = abs(float(np.dot(out.state, want))) ** 2
            assert fid >= 1.0 - 1e-8

    def test_input_in_kept_span_is_fixed(self):
        f = svd(GAP)
        x = f.v[:, 0]
        out = threshold_project(f, x, GAP_PARAMS, np.random.default_rng(2))
        assert out.beta_sq == pytest.approx(1.0, abs=1e-12)
        assert out.iterations == 1
        assert abs(float(np.dot(out.state, x))) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_input_exhausts_and_reports(self):
        f = svd(GAP)
        x = f.v[:, 1]  # entirely below the band
        with pytest.raises(ProjectionEmptyError) as info:
            threshold_project(f, x, GAP_PARAMS, np.random.default_rng(3))
        err = info.value
        assert err.beta_sq == pytest.approx(0.0, abs=1e-12)
        assert err.iterations == default_max_iterations(2, 0.0)

    def test_vanishing_overlap_fails_fast(self):
        a, params, user = disconnected_instance()
        f = svd(a)
        v_kept = f.v[:, kept_mask(f, params)]
        beta_sq = kept_state(v_kept, v_kept.T @ unit_vector(a[user], 6))[0]
        assert 0.0 < beta_sq <= BETA_SQ_FLOOR
        with pytest.raises(ProjectionEmptyError) as info:
            threshold_project(a, a[user], params, np.random.default_rng(8))
        assert info.value.iterations == default_max_iterations(6, 0.0)

    def test_max_iterations_override(self):
        f = svd(GAP)
        with pytest.raises(ProjectionEmptyError) as info:
            threshold_project(
                f,
                f.v[:, 1],
                ProjectionParams(sigma=2.0, max_iterations=3),
                np.random.default_rng(4),
            )
        assert info.value.iterations == 3

    def test_unlucky_draws_can_exhaust_despite_mass(self):
        # seed 1's first uniform draw is above 0.3, so a single-attempt
        # budget fails even though beta^2 = 0.3.
        rng = np.random.default_rng(1)
        assert rng.random() >= 0.3
        with pytest.raises(ProjectionEmptyError) as info:
            threshold_project(
                GAP,
                GAP_X,
                ProjectionParams(sigma=2.0, max_iterations=1),
                np.random.default_rng(1),
            )
        assert info.value.beta_sq == pytest.approx(0.3, abs=1e-12)

    def test_geometric_iteration_statistics(self):
        rng = np.random.default_rng(7)
        iterations = []
        first_try = 0
        for _ in range(3000):
            out = threshold_project(GAP, GAP_X, GAP_PARAMS, rng)
            iterations.append(out.iterations)
            first_try += out.iterations == 1
        mean = float(np.mean(iterations))
        assert abs(mean - 10.0 / 3.0) <= 0.1 * (10.0 / 3.0)
        # P(success on first attempt) = beta^2, 4 standard errors.
        se = np.sqrt(0.3 * 0.7 / 3000.0)
        assert abs(first_try / 3000.0 - 0.3) <= 4.0 * se

    def test_dispatch_from_store_and_dense(self):
        store = MatrixStore.from_dense(GAP)
        out_s = threshold_project(store, GAP_X, GAP_PARAMS, np.random.default_rng(5))
        out_d = threshold_project(GAP, GAP_X, GAP_PARAMS, np.random.default_rng(5))
        assert np.allclose(out_s.state, out_d.state, atol=1e-12)
        assert out_s.kept_indices() == out_d.kept_indices()

    def test_walk_on_the_exact_path_rejected(self):
        # The exact path factorizes a matrix; a walk is a circuit-path source.
        with pytest.raises(MatrixError, match="cannot convert"):
            threshold_project(
                WalkOperator.from_dense(GAP), GAP_X, GAP_PARAMS, np.random.default_rng(0)
            )

    def test_unknown_path_rejected(self):
        with pytest.raises(MatrixError):
            threshold_project(GAP, GAP_X, GAP_PARAMS, np.random.default_rng(0), path="fast")


def planted_instance(seed: int, m: int, n: int, types: int = 4) -> np.ndarray:
    """Binary preferences of a few user types with 5% flips, half observed."""
    rng = np.random.default_rng(seed)
    liked = rng.integers(0, 2, size=(types, n))[rng.integers(0, types, size=m)]
    liked = np.where(rng.random((m, n)) < 0.05, 1 - liked, liked)
    return np.where((rng.random((m, n)) < 0.5) & (liked == 1), 2.0, 0.0)


class TestCircuitPath:
    def test_planted_64_by_64(self):
        a = planted_instance(64, 64, 64)
        wop = WalkOperator.from_dense(a)
        params = ProjectionParams(sigma=0.2 * wop.fro)
        grid = PhaseGrid.for_sigma_precision(params.precision(wop.fro))
        assert grid.bits == 9 and wop.m * wop.n * grid.size <= REGISTER_CAP
        rng = np.random.default_rng(64)
        floor = (1.0 - params.kappa) * params.sigma
        misses = 0
        for row in np.flatnonzero(a.any(axis=1)):
            est = sve_circuit(wop, a[row], params.precision(wop.fro), rng)
            assert est.grid == grid
            assert sum(c.amplitude**2 for c in est.components) == pytest.approx(1.0, abs=1e-12)
            out = threshold_project(wop, a[row], params, rng, path="circuit")
            assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-12)
            misses += sum(
                (c.kept and c.sigma < floor) or (c.sigma >= params.sigma and not c.kept)
                for c in out.components
            )
        assert misses == 0

    def test_default_experiment_store(self, default_context_input):
        # The default 64 x 64 config needs an 11-bit grid: mn * 2^11 is over
        # REGISTER_CAP, but the walk's median table holds n * (2^10 + 1) keys.
        a, params = default_context_input
        wop = WalkOperator.from_store(MatrixStore.from_dense(a))
        grid = projection_grid(params, wop.fro)
        assert grid.bits == 11 and wop.m * wop.n * grid.size > REGISTER_CAP
        rng = np.random.default_rng(DEFAULT_SEED)
        for row in np.flatnonzero(a.any(axis=1))[:4]:
            out = threshold_project(wop, a[row], params, rng, path="circuit")
            assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-12)
        assert wop.median_table(grid).keys.size <= wop.n * (grid.size // 2 + 1) <= REGISTER_CAP

    def test_gap_instance_matches_exact(self):
        wop = WalkOperator.from_dense(GAP)
        rng = np.random.default_rng(11)
        out = threshold_project(wop, GAP_X, GAP_PARAMS, rng, path="circuit")
        assert out.beta_sq == pytest.approx(0.3, abs=1e-9)
        assert out.state.dtype == np.float64
        assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-12)
        fid = abs(float(np.dot(out.state, [1.0, 0.0]))) ** 2
        assert fid >= 1.0 - 1e-8

    def test_circuit_component_amplitudes(self):
        wop = WalkOperator.from_dense(GAP)
        out = threshold_project(
            wop, GAP_X, GAP_PARAMS, np.random.default_rng(12), path="circuit"
        )
        kept = [c for c in out.components if c.kept]
        assert len(kept) == 1
        assert kept[0].amplitude == pytest.approx(np.sqrt(0.3), abs=1e-9)
        assert kept[0].sigma == pytest.approx(3.0, rel=1e-9)

    def test_circuit_sandwich_over_runs(self):
        rng = np.random.default_rng(13)
        for seed in range(15):
            a = random_matrix(seed + 300, 4, 4)
            f = svd(a)
            sigma = float((f.sigma[0] + f.sigma[-1]) / 2.0)
            params = ProjectionParams(sigma=sigma)
            wop = WalkOperator.from_dense(a)
            x = np.random.default_rng(seed).normal(size=4)
            try:
                out = threshold_project(wop, x, params, rng, path="circuit")
            except ProjectionEmptyError:
                continue
            for c in out.components:
                if c.sigma >= sigma:
                    assert c.kept, (seed, c)
                if c.sigma < (1.0 - params.kappa) * sigma:
                    assert not c.kept, (seed, c)

    def test_circuit_fidelity_against_exact(self):
        for seed in range(5):
            a = random_matrix(seed + 400, 4, 4)
            f = svd(a)
            # Mid-gap threshold between the top two values avoids band cases.
            sigma = float((f.sigma[0] + f.sigma[1]) / 2.0)
            params = ProjectionParams(sigma=sigma)
            x = np.random.default_rng(seed).normal(size=4)
            exact = threshold_project(f, x, params, np.random.default_rng(1))
            circ = threshold_project(
                WalkOperator.from_dense(a), x, params, np.random.default_rng(2), path="circuit"
            )
            fid = abs(float(np.dot(exact.state, circ.state))) ** 2
            assert fid >= 1.0 - 1e-8, seed

    def test_circuit_estimates_agree_with_their_flags(self):
        # diag(3, sigma_2, 0.5, 0.25) with sigma_2 = 0.9936 of the cut: its
        # group keeps its median estimate with q = 0.83 per attempt. Every
        # component's estimate must pass the flag rule exactly when it is
        # kept, and that group's estimates must follow the median's law on
        # their flag's side of the cut.
        params = ProjectionParams(sigma=1.0, max_iterations=1000)
        wop = WalkOperator.from_dense(np.diag([3.0, 0.9936 * params.cut, 0.5, 0.25]))
        x = np.ones(4)
        q = circuit_projection_law(wop, x, params.sigma, params.kappa).q
        assert q[1] == pytest.approx(0.833, abs=1e-3)
        grid = projection_grid(params, wop.fro)
        theta = wop.phase_groups().theta[1]
        law = folded_median_law(theta, grid, boost_rounds(wop.m, wop.n))
        kept_side = np.cos(grid.width * np.arange(law.size) / 2.0) * wop.fro >= params.cut
        counts = np.zeros((2, law.size), dtype=np.int64)  # flagged, kept
        rng = np.random.default_rng(83)
        disagreements = 0
        for _ in range(20_000):
            out = threshold_project(wop, x, params, rng, path="circuit")
            for c in out.components:
                disagreements += bool(params.keeps(c.sigma_est)) != c.kept
            est = out.components[1]
            counts[int(est.kept), round(2.0 * np.arccos(est.sigma_est / wop.fro) / grid.width)] += 1
        assert disagreements == 0
        for side, found in zip((~kept_side, kept_side), counts):
            assert found[~side].sum() == 0
            expected = law[side] / law[side].sum() * found.sum()
            assert merged_chi_pvalue(found[side], expected) > 0.01

    def test_circuit_threshold_above_norm_rejected(self):
        wop = WalkOperator.from_dense(GAP)
        with pytest.raises(MatrixError):
            threshold_project(
                wop, GAP_X, ProjectionParams(sigma=4.0), np.random.default_rng(0), path="circuit"
            )

    @pytest.mark.parametrize("sigma", [1e-9, 1e-300])
    def test_circuit_register_cap(self, sigma):
        # Grids of 38 and 62 bits: the cap must fire before any 2^bits array.
        with pytest.raises(RegisterCapError):
            threshold_project(
                WalkOperator.from_dense(GAP),
                GAP_X,
                ProjectionParams(sigma=sigma),
                np.random.default_rng(0),
                path="circuit",
            )

    def test_circuit_orthogonal_input_exhausts(self):
        wop = WalkOperator.from_dense(GAP)
        x = np.array([0.0, 1.0])
        with pytest.raises(ProjectionEmptyError):
            threshold_project(
                wop,
                x,
                ProjectionParams(sigma=2.0, max_iterations=5),
                np.random.default_rng(6),
                path="circuit",
            )

    def test_circuit_vanishing_overlap_fails_fast(self):
        a, params, user = disconnected_instance()
        with pytest.raises(ProjectionEmptyError) as info:
            threshold_project(
                WalkOperator.from_dense(a),
                a[user],
                params,
                np.random.default_rng(9),
                path="circuit",
            )
        assert 0.0 < info.value.beta_sq <= BETA_SQ_FLOOR
        assert info.value.iterations == default_max_iterations(6, 0.0)

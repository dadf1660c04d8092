"""Walk operator mechanics, phase estimation, and singular value estimation."""

import importlib
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qrecsim.qsim as qsim
from qrecsim.errors import EmptyRowError, MatrixError, RegisterCapError
from qrecsim.linalg import svd, unit_vector
from qrecsim.qproject import ProjectionParams, projection_grid, threshold_project
from qrecsim.qsim import (
    COMPONENT_TOL,
    COS_TOL,
    KERNEL_BLOCK,
    MAX_GRID_BITS,
    REGISTER_CAP,
    CircuitSve,
    PhaseGrid,
    WalkOperator,
    boost_rounds,
    eigenphases,
    qpe_bin_probabilities,
    sve,
    sve_circuit,
    sve_exact,
)
from qrecsim.store import MatrixStore, TreeTable

from oracles import (
    OracleWalk,
    QuantumState,
    circuit_sve_law,
    dft_phase_distribution,
    folded_median_law,
    max_error,
    median_bin,
    merged_chi_pvalue,
    prepare_vector_state,
    qpe_joint_state,
    sample_phase_bins,
    sequential_round,
    uncompute_residual_mass,
)

from test_golden import REPEATED

EXAMPLE_ROW = [0.4, 0.4, 0.8, 0.2]


def load_workloads():
    """perfbench/workloads.py, whose ``circuit_input`` builds the benchmark's
    circuit instances."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module("workloads")


def tree_of(values) -> TreeTable:
    tree = TreeTable(1, len(values))
    for j, v in enumerate(values):
        tree.insert(0, j, v)
    return tree


def random_full_matrix(seed: int, m: int = 4, n: int = 4) -> np.ndarray:
    """Random matrix with every row nonzero (walk fully defined)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    while np.any(np.linalg.norm(a, axis=1) == 0.0):
        a = rng.normal(size=(m, n))
    return a


class TestPrepareState:
    def test_example_state(self):
        state = tree_of(EXAMPLE_ROW).states()[0]
        assert np.max(np.abs(state - EXAMPLE_ROW)) <= 1e-12

    def test_matches_direct_normalization(self):
        rng = np.random.default_rng(21)
        row = rng.normal(size=8)
        state = tree_of(row).states()[0]
        assert np.max(np.abs(state - row / np.linalg.norm(row))) <= 1e-12

    def test_single_negative_entry(self):
        tree = TreeTable(1, 4)
        tree.insert(0, 2, -7.0)
        state = tree.states()[0]
        assert np.array_equal(state, [0.0, 0.0, -1.0, 0.0])

    def test_signs_at_leaf_level(self):
        state = tree_of([0.5, -0.5, -0.5, 0.5]).states()[0]
        assert np.allclose(state, [0.5, -0.5, -0.5, 0.5], atol=1e-14)

    def test_single_leaf_tree(self):
        tree = TreeTable(1, 1)
        tree.insert(0, 0, -3.0)
        assert np.array_equal(tree.states()[0], [-1.0])

    def test_empty_tree_errors(self):
        # The cascade has nothing to split, so the oracle refuses and the
        # table gives the tree a row of +0.0.
        empty, zero = TreeTable(1, 4), TreeTable(1, 4)
        zero.insert(0, 1, 0.0)
        for tree in (empty, zero):
            with pytest.raises(EmptyRowError):
                prepare_vector_state(tree)
            assert not tree.states().view(np.uint64).any()

    def test_padded_width(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=5)
        state = tree_of(row).states()[0]
        assert state.shape == (5,)
        assert np.max(np.abs(state - row / np.linalg.norm(row))) <= 1e-12


class TestWalkOperator:
    def test_store_and_dense_agree(self):
        a = random_full_matrix(1, 5, 6)
        ws = WalkOperator.from_store(MatrixStore.from_dense(a))
        wd = WalkOperator.from_dense(a)
        assert np.max(np.abs(ws.row_states - wd.row_states)) <= 1e-12
        assert np.max(np.abs(ws.a_tilde - wd.a_tilde)) <= 1e-12
        assert ws.fro == pytest.approx(wd.fro, rel=1e-14)

    def test_p_q_isometries(self):
        w = OracleWalk.from_dense(random_full_matrix(2, 4, 5))
        p, q = w.matrices()
        assert np.max(np.abs(p.T @ p - np.eye(4))) <= 1e-10
        assert np.max(np.abs(q.T @ q - np.eye(5))) <= 1e-10

    def test_pt_q_factors_the_matrix(self):
        a = random_full_matrix(3, 5, 4)
        w = OracleWalk.from_dense(a)
        p, q = w.matrices()
        assert np.max(np.abs(p.T @ q - a / np.linalg.norm(a))) <= 1e-10

    def test_row_example_three_four(self):
        w = OracleWalk.from_dense(np.array([[3.0, 4.0]]))
        out = w.apply_P(np.array([1.0]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-14)

    def test_apply_matches_dense(self):
        a = random_full_matrix(4, 3, 4)
        w = OracleWalk.from_dense(a)
        p, q = w.matrices()
        rng = np.random.default_rng(0)
        s = rng.normal(size=(3, 4))
        u_dense = (2.0 * p @ p.T - np.eye(12)) @ s.reshape(-1)
        v_dense = (2.0 * q @ q.T - np.eye(12)) @ s.reshape(-1)
        assert np.max(np.abs(w.apply_U(s).reshape(-1) - u_dense)) <= 1e-10
        assert np.max(np.abs(w.apply_V(s).reshape(-1) - v_dense)) <= 1e-10
        w_dense = w.materialize_W() @ s.reshape(-1)
        assert np.max(np.abs(w.apply_W(s).reshape(-1) - w_dense)) <= 1e-10

    def test_reflections_are_involutions(self):
        w = OracleWalk.from_dense(random_full_matrix(5, 4, 4))
        rng = np.random.default_rng(1)
        s = rng.normal(size=(4, 4))
        assert np.max(np.abs(w.apply_U(w.apply_U(s)) - s)) <= 1e-10
        assert np.max(np.abs(w.apply_V(w.apply_V(s)) - s)) <= 1e-10
        assert np.max(np.abs(w.apply_W_inverse(w.apply_W(s)) - s)) <= 1e-10

    def test_walk_preserves_norm(self):
        w = OracleWalk.from_dense(random_full_matrix(6, 4, 5))
        s = np.random.default_rng(2).normal(size=(4, 5))
        assert np.linalg.norm(w.apply_W(s)) == pytest.approx(np.linalg.norm(s), rel=1e-12)

    def test_completed_route_agrees_with_projector_route(self):
        # Reflections built from explicit basis completions must match the
        # projector algebra within 1e-10 on arbitrary states.
        for seed in range(5):
            a = random_full_matrix(seed + 10, 4, 5)
            w = OracleWalk.from_dense(a)
            s = np.random.default_rng(seed).normal(size=(4, 5))
            assert np.max(np.abs(w.apply_U_completed(s) - w.apply_U(s))) <= 1e-10
            assert np.max(np.abs(w.apply_V_completed(s) - w.apply_V(s))) <= 1e-10
            via_completed = w.apply_U_completed(w.apply_V_completed(s))
            assert np.max(np.abs(via_completed - w.apply_W(s))) <= 1e-10

    def test_amplitude_on_empty_row_rejected(self):
        w = OracleWalk.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(MatrixError):
            w.apply_P(np.array([0.0, 1.0]))
        # Q is fine: the empty row simply carries no weight.
        out = w.apply_Q(np.array([1.0, 0.0]))
        assert np.allclose(out[1], 0.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(EmptyRowError):
            WalkOperator.from_dense(np.zeros((2, 2)))


class TestEigenphases:
    def test_diag_three_four(self):
        # sigma/fro = 0.8 and 0.6: the walk's rotation planes must land there.
        a = np.diag([3.0, 4.0])
        w = WalkOperator.from_dense(a)
        groups = w.phase_groups()
        cosines = sorted(np.cos(groups.theta / 2.0))
        assert cosines == pytest.approx([0.6, 0.8], abs=1e-10)
        assert groups.column_group.tolist() == [0, 1]
        f = svd(a)
        assert sorted(eigenphases(f)) == pytest.approx(
            sorted(2.0 * np.arccos(np.array([0.8, 0.6]))), abs=1e-12
        )

    def test_oracle_matches_walk_spectrum(self):
        a = random_full_matrix(7, 4, 3)
        f = svd(a)
        w = OracleWalk.from_dense(a)
        walk_thetas = sorted(g.theta for g in w.dense_phase_groups for _ in range(g.dim))
        # Every oracle phase appears among the walk's plane angles.
        for theta in eigenphases(f):
            assert min(abs(theta - t) for t in walk_thetas) <= 1e-8

    def test_zero_singular_direction_is_negated(self):
        # Duplicate columns give a null right vector v: W|Qv> = -|Qv>.
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        f = svd(a)
        assert f.rank == 1
        v_null = f.v[:, 1]
        w = OracleWalk.from_dense(a)
        s = w.apply_Q(v_null)
        assert np.max(np.abs(w.apply_W(s) + s)) <= 1e-10
        assert eigenphases(f)[1] == pytest.approx(np.pi, abs=1e-12)

    def test_complement_is_fixed(self):
        a = random_full_matrix(8, 3, 3)
        w = OracleWalk.from_dense(a)
        p, q = w.matrices()
        joint = np.hstack([p, q])
        basis, _ = np.linalg.qr(joint)
        s = np.random.default_rng(5).normal(size=9)
        s_perp = s - basis @ (basis.T @ s)
        if np.linalg.norm(s_perp) > 1e-8:
            s_perp = s_perp.reshape(3, 3)
            assert np.max(np.abs(w.apply_W(s_perp) - s_perp)) <= 1e-10

    def test_rotation_plane_two_by_two(self):
        # On span{P u_i, Q v_i} the walk acts as a rotation by theta_i.
        a = random_full_matrix(9, 4, 4)
        f = svd(a)
        u = np.linalg.svd(a)[0]
        w = OracleWalk.from_dense(a)
        thetas = eigenphases(f)
        for i in range(f.rank):
            pu = w.apply_P(u[:, i]).reshape(-1)
            qv = w.apply_Q(f.v[:, i]).reshape(-1)
            wqv = w.apply_W(qv.reshape(4, 4)).reshape(-1)
            # Stays in the plane and has the right angle with Qv.
            span = np.stack([pu, qv]).T
            coef, *_ = np.linalg.lstsq(span, wqv, rcond=None)
            assert np.linalg.norm(span @ coef - wqv) <= 1e-9
            assert qv @ wqv == pytest.approx(np.cos(thetas[i]), abs=1e-9)

    def test_zero_matrix_phases_rejected(self):
        with pytest.raises(MatrixError):
            eigenphases(svd(np.zeros((2, 2))))


class TestPhaseGrid:
    def test_bits_for_sigma_precision(self):
        assert PhaseGrid.for_sigma_precision(0.05).bits == 8
        assert PhaseGrid.for_sigma_precision(0.99).bits == 4

    def test_bin_round_trips(self):
        grid = PhaseGrid(6)
        assert grid.bin_of(0.0) == 0
        assert grid.bin_of(np.pi) == 32
        assert grid.theta_of(32) == pytest.approx(np.pi, abs=1e-14)
        assert grid.theta_of(63) == pytest.approx(grid.width, abs=1e-14)
        assert grid.sigma_of(0, 2.5) == 2.5

    def test_round_to_nearest(self):
        grid = PhaseGrid(4)
        assert grid.bin_of(grid.width * 3.4) == 3
        assert grid.bin_of(grid.width * 3.6) == 4

    def test_invalid_precision(self):
        with pytest.raises(MatrixError):
            PhaseGrid.for_sigma_precision(0.0)

    @pytest.mark.parametrize("eps", [1.0, 3.0, np.inf, np.nan, True, "0.1"])
    def test_precision_is_a_fraction(self, eps):
        # Every estimate lies within ||A||_F of sigma, so eps >= 1 promises nothing.
        with pytest.raises(MatrixError, match=r"eps must be a number in \(0, 1\), got "):
            PhaseGrid.for_sigma_precision(eps)

    @pytest.mark.parametrize("bits", [0, -1, MAX_GRID_BITS + 1, 2.5, True, None])
    def test_bits_take_the_count_rule(self, bits):
        with pytest.raises(MatrixError) as info:
            PhaseGrid(bits)
        assert str(info.value) == (
            f"bits must be an integer in [1, {MAX_GRID_BITS}], got {bits!r}"
        )

    @pytest.mark.parametrize("bits", [3, 7, 12, 19, 40, MAX_GRID_BITS])
    def test_array_rounding_matches_scalar_loop(self, bits):
        # Reference: the per-phase Python-integer rounding, one phase at a time.
        grid = PhaseGrid(bits)
        rng = np.random.default_rng(bits)
        edges = (np.arange(min(grid.size // 2, 4096) + 1) + 0.5) * grid.width
        thetas = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 4000), edges, [0.0, np.pi]])
        bins = grid.bin_of(thetas)
        theta_est = grid.theta_of(bins)
        sigma_est = grid.sigma_of(bins, 2.5)
        for i, theta in enumerate(thetas.tolist()):
            b = int(np.round(theta / grid.width)) % grid.size
            folded = min(b, grid.size - b) * grid.width
            assert (int(bins[i]), float(theta_est[i])) == (b, folded)
            assert float(sigma_est[i]) == float(np.cos(folded / 2.0) * 2.5)
            assert (grid.bin_of(theta), grid.theta_of(b)) == (b, folded)
        assert type(grid.bin_of(1.0)) is int and type(grid.sigma_of(3, 1.0)) is float

    def test_finest_grid_is_capped(self):
        grid = PhaseGrid.for_sigma_precision(1e-300)
        assert grid.bits == MAX_GRID_BITS
        assert grid.bin_of(np.pi) == grid.size // 2
        # 2 pi / (2 eps) overflows to inf here; the cap applies before int().
        assert PhaseGrid.for_sigma_precision(5e-324).bits == MAX_GRID_BITS

    @pytest.mark.parametrize("bits", [*range(3, 21), 62])
    def test_bins_fold_onto_one_phase(self, bits):
        # Bins b and N - b are one folded bin: same phase and same sigma, bit
        # for bit, and bins up to N/2 sit at b widths.
        grid = PhaseGrid(bits)
        n = grid.size
        rng = np.random.default_rng(bits)
        b = np.concatenate([np.arange(min(n, 1 << 12)), rng.integers(0, n, size=1000)])
        assert grid.theta_of(b).tolist() == grid.theta_of(n - b).tolist()
        assert grid.sigma_of(b, 3.0).tolist() == grid.sigma_of(n - b, 3.0).tolist()
        low = b[b <= n // 2]
        assert grid.theta_of(low).tolist() == (low * grid.width).tolist()
        assert grid.theta_of(n // 2) == np.pi and grid.theta_of(n) == 0.0

    def test_boost_rounds(self):
        assert boost_rounds(8, 8) == 13
        assert boost_rounds(2, 2) == 5


def grouped_column_by_column(thetas: np.ndarray):
    """The phase groups' rule run one column at a time: (starts, phases,
    column groups)."""
    cosines = np.cos(thetas)
    starts, phases = [], []
    column_group = np.empty(len(thetas), dtype=np.intp)
    start = 0
    while start < len(thetas):
        stop = start + 1
        while stop < len(thetas) and cosines[start] - cosines[stop] < COS_TOL:
            stop += 1
        column_group[start:stop] = len(starts)
        starts.append(start)
        phases.append(np.mean(thetas[start:stop]))
        start = stop
    return np.array(starts), np.array(phases), column_group


class TestPhaseGrouping:
    def check(self, thetas):
        got = qsim._group_phases(thetas)
        want = grouped_column_by_column(thetas)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return got

    def test_benchmark_instances_group_as_column_by_column(self):
        wl = load_workloads()
        for inst in wl.circuit_input(1, 32, 16) + wl.circuit_input(7, 32, 16):
            w = WalkOperator.from_dense(inst.matrix)
            self.check(eigenphases(svd(w.row_states * w.a_tilde[:, None])))

    def test_repeated_values_group_as_column_by_column(self):
        # The golden REPEATED matrix has a two-column group and a kernel.
        w = WalkOperator.from_dense(REPEATED)
        starts, _, _ = self.check(eigenphases(svd(w.row_states * w.a_tilde[:, None])))
        assert np.any(np.diff(np.append(starts, w.n)) > 1)

    def test_greedy_rule_splits_a_chain_of_close_cosines(self):
        # Cosines 0.6 COS_TOL apart: no neighbour gap reaches COS_TOL, but
        # every third column is COS_TOL from its group's first.
        cosines = 0.3 - 0.6 * COS_TOL * np.arange(12)
        thetas = np.concatenate([[0.2], np.arccos(cosines), [2.5, 2.5, np.pi]])
        starts, _, groups = self.check(thetas)
        assert 2 < len(starts) < len(thetas) - 2
        assert groups.tolist() == sorted(groups.tolist())

    def test_table_matches_column_by_column(self):
        w = WalkOperator.from_dense(random_full_matrix(85, 6, 9))
        table = w.phase_groups()
        starts, theta, column_group = grouped_column_by_column(
            eigenphases(svd(w.row_states * w.a_tilde[:, None]))
        )
        assert table.start.tobytes() == starts.tobytes()
        assert table.theta.tobytes() == theta.tobytes()
        assert table.column_group.tobytes() == column_group.tobytes()


class TestPhaseEstimation:
    def test_kernel_matches_brute_force_dft(self):
        grid = PhaseGrid(4)
        for theta in (0.0, 0.3, 1.7, np.pi, 2.0 * np.pi / 16.0 * 5.0):
            got = qpe_bin_probabilities(theta, grid)
            want = dft_phase_distribution(theta, 4)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_on_grid_phase_is_certain(self):
        grid = PhaseGrid(5)
        probs = qpe_bin_probabilities(grid.width * 7, grid)
        assert probs[7] == pytest.approx(1.0, abs=1e-12)

    def test_one_bin_mass_at_least_eight_over_pi_sq(self):
        grid = PhaseGrid(6)
        for theta in np.linspace(0.0, np.pi, 40):
            probs = qpe_bin_probabilities(theta, grid)
            b = grid.bin_of(theta)
            neighborhood = probs[b] + probs[(b + 1) % grid.size] + probs[(b - 1) % grid.size]
            assert neighborhood >= 8.0 / np.pi**2 - 1e-12

    def test_circuit_marginal_matches_kernel_on_eigenstate(self):
        # Full statevector round on an actual walk eigenplane vs the kernel.
        # A real plane vector splits evenly across the +theta and -theta
        # complex eigenvectors, so the marginal is the symmetrized kernel.
        a = random_full_matrix(11, 3, 3)
        w = OracleWalk.from_dense(a)
        grid = PhaseGrid(6)
        group = max(w.dense_phase_groups, key=lambda g: g.theta * (g.theta < np.pi))
        s = group.basis[:, 0].reshape(3, 3)
        joint = qpe_joint_state(w, s, grid)
        marginal = np.sum(np.abs(joint) ** 2, axis=(1, 2))
        plus = qpe_bin_probabilities(group.theta, grid)
        minus = np.roll(plus[::-1], 1)  # bin b of -theta sits at (N - b) % N
        assert np.max(np.abs(marginal - (plus + minus) / 2.0)) <= 1e-10

    def test_circuit_theta_zero_lands_on_bin_zero(self):
        a = random_full_matrix(8, 3, 3)
        w = OracleWalk.from_dense(a)
        p, q = w.matrices()
        basis, _ = np.linalg.qr(np.hstack([p, q]))
        s = np.random.default_rng(4).normal(size=9)
        s -= basis @ (basis.T @ s)
        s /= np.linalg.norm(s)
        joint = qpe_joint_state(w, s.reshape(3, 3), PhaseGrid(5))
        marginal = np.sum(np.abs(joint) ** 2, axis=(1, 2))
        assert marginal[0] == pytest.approx(1.0, abs=1e-10)

    def test_phase_estimation_wrapper_shapes_and_norm(self):
        a = random_full_matrix(12, 2, 2)
        w = OracleWalk.from_dense(a)
        x = np.array([0.6, 0.8])
        grid = PhaseGrid.for_sigma_precision(0.1)
        joint = qpe_joint_state(w, w.apply_Q(x), grid)
        assert joint.shape == (grid.size, 2, 2)
        assert np.linalg.norm(joint) == pytest.approx(1.0, abs=1e-12)

    def test_register_cap_enforced(self):
        a = random_full_matrix(13, 8, 8)
        w = OracleWalk.from_dense(a)
        with pytest.raises(RegisterCapError):
            qpe_joint_state(w, np.zeros((8, 8)), PhaseGrid(17))

    def test_median_bin_folds_across_zero(self):
        grid = PhaseGrid(6)
        bins = np.array([0, 63, 1, 63, 2])
        b, theta = median_bin(bins, grid.theta_of(bins))
        assert grid.theta_of(b) == pytest.approx(grid.width, abs=1e-12)
        assert theta == grid.theta_of(b)

    def test_boosted_estimates_concentrate(self):
        grid = PhaseGrid(8)
        rng = np.random.default_rng(99)
        theta = 1.2345
        hits = 0
        for _ in range(200):
            bins = sample_phase_bins(theta, grid, 13, rng)
            b, _ = median_bin(bins, grid.theta_of(bins))
            dist = min((b - grid.bin_of(theta)) % grid.size,
                       (grid.bin_of(theta) - b) % grid.size)
            hits += dist <= 1
        assert hits >= 195

    def test_uncompute_residual_on_grid_eigenstate_is_zero(self):
        # Construct a walk with an exactly representable phase: diagonal
        # matrix with sigma/fro = cos(pi/4) gives theta = pi/2 = bin N/4.
        a = np.diag([1.0, 1.0])
        w = OracleWalk.from_dense(a)  # sigma/fro = 1/sqrt(2), theta = pi/2
        grid = PhaseGrid(4)
        group = min(w.dense_phase_groups, key=lambda g: abs(g.theta - np.pi / 2.0))
        assert group.theta == pytest.approx(np.pi / 2.0, abs=1e-10)
        s = group.basis[:, 0].reshape(2, 2)
        assert uncompute_residual_mass(w, s, grid) <= 1e-10

    def test_uncompute_residual_matches_kernel_identity(self):
        # For an eigenplane state the leftover mass is 1 - sum_b |c_b|^4.
        a = random_full_matrix(14, 2, 3)
        w = OracleWalk.from_dense(a)
        grid = PhaseGrid(5)
        group = max(w.dense_phase_groups, key=lambda g: g.dim * (0 < g.theta < np.pi))
        s = group.basis[:, 0].reshape(2, 3)
        got = uncompute_residual_mass(w, s, grid)
        probs = qpe_bin_probabilities(group.theta, grid)
        assert got == pytest.approx(1.0 - float(np.sum(probs**2)), abs=1e-10)


class TestSve:
    def test_exact_within_guarantee(self):
        for seed in range(20):
            a = random_full_matrix(seed, 8, 8)
            f = svd(a)
            x = np.random.default_rng(seed + 100).normal(size=8)
            out = sve_exact(f, x, 0.05)
            assert max_error(out) <= 0.05 * f.frobenius_norm()

    def test_identity_matrix_estimates_one(self):
        f = svd(np.eye(4))
        out = sve_exact(f, np.ones(4), 0.05)
        for c in out.components:
            assert abs(c.sigma_est - 1.0) <= 0.05 * 2.0

    def test_exact_amplitudes_are_decomposition(self):
        a = random_full_matrix(33, 6, 6)
        f = svd(a)
        x = np.random.default_rng(3).normal(size=6)
        out = sve_exact(f, x, 0.1)
        amps = np.array([c.amplitude for c in out.components])
        assert np.sum(amps**2) == pytest.approx(1.0, abs=1e-10)
        alpha = f.v.T @ (x / np.linalg.norm(x))
        assert amps == pytest.approx(np.abs(alpha), abs=1e-12)

    def test_circuit_group_amplitudes_match_exact(self):
        a = random_full_matrix(17, 4, 4)
        x = np.random.default_rng(17).normal(size=4)
        exact = sve_exact(svd(a), x, 0.05)
        rng = np.random.default_rng(0)
        circ = sve_circuit(WalkOperator.from_dense(a), x, 0.05, rng)
        for c in circ.components:
            near = [e for e in exact.components if abs(e.theta - c.theta) < 1e-7]
            want = np.sqrt(sum(e.amplitude**2 for e in near))
            assert c.amplitude == pytest.approx(want, abs=1e-9)

    def test_circuit_within_one_bin_of_exact(self):
        hits = total = 0
        for seed in range(20):
            a = random_full_matrix(seed + 40, 8, 8)
            x = np.random.default_rng(seed).normal(size=8)
            exact = sve_exact(svd(a), x, 0.05)
            circ = sve_circuit(
                WalkOperator.from_dense(a), x, 0.05, np.random.default_rng(seed)
            )
            size = circ.grid.size
            for c in circ.components:
                e = min(exact.components, key=lambda e: abs(e.theta - c.theta))
                d = min((c.bin - e.bin) % size, (e.bin - c.bin) % size)
                total += 1
                hits += d <= 1
        assert hits / total >= 0.95

    def test_dispatch_and_validation(self):
        a = random_full_matrix(50, 3, 3)
        store = MatrixStore.from_dense(a)
        x = np.ones(3)
        out_store = sve(store, x, 0.1)
        out_dense = sve(a, x, 0.1)
        assert [c.bin for c in out_store.components] == [c.bin for c in out_dense.components]
        with pytest.raises(MatrixError):
            sve(a, np.zeros(3), 0.1)
        with pytest.raises(MatrixError):
            sve(a, x, 0.1, path="circuit")  # rng required
        with pytest.raises(MatrixError):
            sve(a, x, 0.1, path="sideways")

    def test_circuit_register_cap(self):
        a = random_full_matrix(51, 8, 8)
        with pytest.raises(RegisterCapError):
            sve(a, np.ones(8), 1e-5, path="circuit", rng=np.random.default_rng(0))

    def test_column_space_variant_smoke(self):
        # Estimation through P on a left singular vector: the dominant
        # rotation plane of |P u_1> carries theta_1.
        a = random_full_matrix(52, 4, 4)
        f = svd(a)
        w = OracleWalk.from_dense(a)
        s = w.apply_P(np.linalg.svd(a)[0][:, 0]).reshape(-1)
        theta_1 = eigenphases(f)[0]
        best = max(w.dense_phase_groups, key=lambda g: g.overlap_sq(s))
        assert best.theta == pytest.approx(theta_1, abs=1e-8)
        assert best.overlap_sq(s) >= 0.5


def span_test_matrices() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(808)
    u, v = rng.normal(size=7), rng.normal(size=5)
    with_empty = rng.normal(size=(6, 5))
    with_empty[[1, 4]] = 0.0
    dup = rng.normal(size=(4, 3))
    dup = np.hstack([dup, dup[:, :1]])
    return {
        "random-6x9": rng.normal(size=(6, 9)),
        "random-9x4": rng.normal(size=(9, 4)),
        "random-32x32": rng.normal(size=(32, 32)),
        "empty-rows": with_empty,
        "duplicate-rows-and-columns": np.vstack([dup, dup[:2], np.zeros((1, 4))]),
        "rank-1": np.outer(u, v),
        "rank-1-plus-noise": np.outer(u, v) + 1e-7 * rng.normal(size=(7, 5)),
        "one-row": rng.normal(size=(1, 6)),
        "one-column": rng.normal(size=(6, 1)),
        "rank-1-plus-1e-4-noise": near_rank_one(0, 8, 6, 1e-4),
        "rank-1-plus-3e-5-noise": near_rank_one(0, 8, 6, 3e-5),
    }


def near_rank_one(seed: int, m: int, n: int, noise: float) -> np.ndarray:
    r = np.random.default_rng(seed)
    return np.outer(r.normal(size=m), r.normal(size=n)) + noise * r.normal(size=(m, n))


# 1 - sigma_1 / ||A||_F ~ 5e-9 and ~4e-10, and the small singular values sit
# ~1e-5 apart. The dense walk's eigh cannot separate its clusters near pi,
# about 1e-8 apart in cos(theta), so its weights there are off by ~2e-7, and it
# reports the fixed space as a theta ~ 1.5e-8 group. Its phases and survivor
# still agree; the analytic weights stand in for its weights and kept sets.
DENSE_UNRESOLVED = {"rank-1-plus-1e-4-noise", "rank-1-plus-3e-5-noise"}


def planted_subsample(
    rng: np.random.Generator, m: int, n: int, types: int = 4, flips: float = 0.05,
    keep: float = 0.5,
) -> np.ndarray:
    """User types over items, per-cell flips, then keep-with-p rescaled by 1/p."""
    liked = rng.integers(0, 2, size=(types, n))
    liked[np.arange(types), rng.integers(0, n, size=types)] = 1
    liked = liked[rng.integers(0, types, size=m)]
    liked = np.where(rng.random((m, n)) < flips, 1 - liked, liked)
    kept = rng.random((m, n)) < keep
    return np.where(kept & (liked == 1), 1.0 / keep, 0.0)


def phase_buckets(*theta_lists, tol=1e-6) -> list[float]:
    """Left edges of clusters of phases that lie within tol of a neighbour."""
    merged = np.sort(np.concatenate([np.asarray(t, dtype=np.float64) for t in theta_lists]))
    return [merged[0]] + [b for a, b in zip(merged[:-1], merged[1:]) if b - a >= tol]


def bucket_of(theta: float, edges: list[float]) -> int:
    return int(np.searchsorted(edges, theta, side="right")) - 1


class TestSpanDecomposition:
    """The SVD-read rotation planes against the dense mn x mn walk and the exact SVD."""

    @pytest.mark.parametrize("name", sorted(span_test_matrices()))
    def test_matches_dense_walk(self, name):
        a = span_test_matrices()[name]
        m, n = a.shape
        w = OracleWalk.from_dense(a)
        f = svd(a)
        walk_groups, dense_groups = w.phase_groups(), w.dense_phase_groups
        x = unit_vector(np.cos(np.arange(n) + 0.5), n)
        qx = w.apply_Q(x).reshape(-1)
        grid = PhaseGrid(10)
        est = CircuitSve(w, x, grid)
        dense_w = np.array([g.overlap_sq(qx) for g in dense_groups])
        walk_t = walk_groups.theta
        dense_t = np.array([g.theta for g in dense_groups])
        if name == "one-row":
            # theta = 0 and one pi group: arccos near pi resolves only ~1e-8,
            # and the pi eigenspace must not split at that scale.
            assert len(walk_groups) == len(dense_groups) == 2, name
        if name == "one-column":
            # The pi eigenspace lies wholly on the P side: no |Q x> reaches it.
            assert walk_groups.theta.tolist() == [0.0], name

        # Phases away from 0 and pi: walk, dense and analytic agree. The
        # analytic phases are 2 arccos(sigma_i / ||A||_F) over all n right
        # singular vectors, pi beyond the rank; true_t keeps those in rank.
        ratios = np.zeros(n)
        ratios[: f.rank] = f.sigma / f.frobenius_norm()
        exact_t = 2.0 * np.arccos(np.clip(ratios, 0.0, 1.0))
        true_t = exact_t[: f.rank]

        def away(thetas):
            return thetas[(thetas > 1e-3) & (thetas < np.pi - 1e-3)]

        for theta in away(walk_t):
            assert np.min(np.abs(dense_t - theta)) <= 1e-10, (name, theta)
            assert np.min(np.abs(true_t - theta)) <= 1e-10, (name, theta)
        for theta in away(dense_t):
            assert np.min(np.abs(walk_t - theta)) <= 1e-10, (name, theta)

        # Phases near 0 (sigma near ||A||_F): arccos of cos(theta) ~ 1
        # resolves them only to ~sqrt(machine epsilon) = 1.5e-8.
        def near_zero(thetas):
            return thetas[(thetas > 1e-7) & (thetas <= 1e-3)]

        for theta in near_zero(walk_t):
            assert np.min(np.abs(true_t - theta)) <= 1e-7, (name, theta)
        for theta in near_zero(true_t):
            assert np.min(np.abs(walk_t - theta)) <= 1e-7, (name, theta)
        # Every group phase, near pi too, is one of the exact phases.
        for theta in walk_t:
            assert np.min(np.abs(exact_t - theta)) <= 1e-7, (name, theta)

        # Group weights of |Q x>, summed per cluster of phases, against the
        # overlaps (v_i . x)^2 of the exact SVD and the dense walk's weights.
        assert np.sum(est.weights) == pytest.approx(1.0, abs=1e-12)
        assert walk_groups.column_group.size == n
        edges = phase_buckets(walk_t, dense_t, exact_t)

        def bucketed(thetas, weights):
            out = np.zeros(len(edges))
            np.add.at(out, [bucket_of(t, edges) for t in thetas], weights)
            return out

        walk_b = bucketed(walk_t, est.weights)
        assert np.max(np.abs(walk_b - bucketed(exact_t, (f.v.T @ x) ** 2))) <= 1e-10, name
        if name not in DENSE_UNRESOLVED:
            assert np.max(np.abs(walk_b - bucketed(dense_t, dense_w))) <= 1e-12, name

        # Kept sets by phase: carrying groups whose rounded estimate clears
        # the cut of a threshold inside the spectrum.
        top = f.sigma[: f.rank]
        sigma = float(np.sqrt(top[0] * top[-1])) if f.rank > 1 else top[0] / 2.0
        params = ProjectionParams(sigma=sigma)

        def kept(thetas, weights):
            ests = grid.sigma_of(grid.bin_of(np.asarray(thetas)), f.frobenius_norm())
            carry = np.asarray(weights) >= COMPONENT_TOL**2
            return np.flatnonzero(carry & (np.asarray(ests) >= params.cut))

        walk_kept = kept(walk_t, est.weights)
        dense_kept = kept(dense_t, dense_w)
        if name not in DENSE_UNRESOLVED:
            assert {bucket_of(walk_t[g], edges) for g in walk_kept} == {
                bucket_of(dense_t[g], edges) for g in dense_kept
            }, name
        # The survivors map back to the same item-space vector.
        dense_survivor = w.apply_Qt(
            sum(dense_groups[g].basis @ (dense_groups[g].basis.T @ qx) for g in dense_kept)
            .reshape(m, n)
        )
        assert np.max(np.abs(est.survivor(walk_kept) - dense_survivor)) <= 1e-10, name

    def test_stored_rows_put_no_weight_on_the_kernel(self):
        # A row of A is orthogonal to null(A), so the theta = pi group gets
        # only rounding from it; weight above COMPONENT_TOL^2 = 1e-24 there
        # would draw a component the input does not carry.
        worst = 0.0
        for seed in range(22):
            a = planted_subsample(np.random.default_rng(seed), 32, 32)
            w = WalkOperator.from_store(MatrixStore.from_dense(a))
            for row in a[np.any(a != 0.0, axis=1)]:
                est = CircuitSve(w, row, PhaseGrid(4))
                at_pi = np.abs(est.groups.theta - np.pi) < 1e-6
                worst = max(worst, float(np.sum(est.weights[at_pi])))
        assert worst <= 1e-28

    def test_phase_groups_allocate_nothing_of_size_mn(self):
        # At 64 x 64 the dense walk alone would be 128 MiB; the span
        # decomposition is one SVD of the m x n matrix.
        a = random_full_matrix(60, 64, 64)
        w = WalkOperator.from_dense(a)
        tracemalloc.start()
        try:
            groups = w.phase_groups()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * (w.m + w.n) ** 2 * 8
        assert groups.column_group.size == w.n

    @pytest.mark.parametrize("m, n", [(2047, 2), (16384, 8)])
    def test_tall_stores_run_without_an_m_by_m_u(self, m, n):
        # (m + n)^2 is over REGISTER_CAP, but the SVD holds only V, the
        # reduced U and a copy of A~: n^2 + 2 mn entries.
        a = np.zeros((m, n))
        a[:n] = np.eye(n) + np.triu(np.ones((n, n)))
        a[n::7, 0] = 1.0
        w = WalkOperator.from_store(MatrixStore.from_dense(a))
        assert w.n**2 + 2 * w.m * w.n <= REGISTER_CAP < (w.m + w.n) ** 2
        tracemalloc.start()
        try:
            groups = w.phase_groups()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.m**2 * 8
        assert groups.column_group.size == w.n
        out = sve_circuit(w, a[0], 0.5, np.random.default_rng(0))
        assert sum(c.amplitude**2 for c in out.components) == pytest.approx(1.0, abs=1e-12)

    def test_median_table_is_built_in_place(self):
        # 64 groups x (2^15 + 1) folded bins of a 16-bit grid; building the
        # table holds its keys, plus one group's kernel scratch at a time.
        # The build peaks at 1.27 times the keys.
        w = WalkOperator.from_dense(random_full_matrix(61, 64, 64))
        w.phase_groups()
        grid = PhaseGrid(16)
        tracemalloc.start()
        try:
            table = w.median_table(grid, ProjectionParams(sigma=0.3 * w.fro))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.keys.size == len(w.phase_groups()) * (grid.size // 2 + 1)
        assert peak < 1.3 * table.keys.nbytes

    def test_span_cap_raises_before_allocating(self):
        # 2 x 2048 on a 5-bit grid keeps every median table small, but the
        # SVD's n^2 + 2 mn = 4,202,496 entries are over REGISTER_CAP.
        a = np.zeros((2, 2048))
        a[:, :2] = np.eye(2)
        w = WalkOperator.from_dense(a)
        assert w.n * PhaseGrid(5).size <= REGISTER_CAP < w.n**2 + 2 * w.m * w.n
        tracemalloc.start()
        try:
            with pytest.raises(RegisterCapError, match="span decomposition"):
                sve_circuit(w, np.ones(2048), 0.5, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.n**2


class TestCircuitDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_round_matches_sequential_choice(self, seed):
        a = random_full_matrix(seed + 70, 5, 7)
        x = np.random.default_rng(seed).normal(size=7)
        w = WalkOperator.from_dense(a)
        grid = PhaseGrid(6 + seed)
        est = CircuitSve(w, x, grid)
        thetas = est.groups.theta.tolist()
        batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            bins, theta_est, _ = est.round(batched)
            got = list(zip(est.carrying.tolist(), bins.tolist(), theta_est.tolist()))
            want = sequential_round(thetas, est.weights, w.m, w.n, grid, sequential)
            assert got == want
        assert batched.random() == sequential.random()

    @pytest.mark.parametrize("bits", range(3, 17))
    def test_blocked_table_matches_row_by_row_kernels(self, bits, monkeypatch):
        # Enough phases to cross a block edge twice on every grid: random
        # ones, exactly 0 and pi, and on-grid ones (whose kernel is exact).
        grid = PhaseGrid(bits)
        rows = max(1, KERNEL_BLOCK // grid.size)
        rng = np.random.default_rng(bits)
        on_grid = grid.width * rng.integers(0, grid.size // 2 + 1, size=3)
        special = np.concatenate([[0.0, np.pi], on_grid])
        thetas = np.concatenate([special, rng.uniform(0.0, np.pi, size=2 * rows + 1)])
        w = WalkOperator.from_dense(np.eye(2))
        monkeypatch.setattr(w, "phase_groups", lambda: SimpleNamespace(theta=thetas))
        params = ProjectionParams(sigma=0.5 * w.fro)
        table = w.median_table(grid, params)
        rounds = boost_rounds(w.m, w.n)
        want = np.concatenate(
            [qsim._median_cdf(qpe_bin_probabilities(t, grid)[None], rounds) for t in thetas]
        )
        assert table.keys.tobytes() == (want + np.arange(len(thetas))[:, None]).tobytes()
        folded = np.arange(grid.size // 2 + 1)
        assert table.sigma.tobytes() == grid.sigma_of(folded, w.fro).tobytes()
        assert 0 < table.kept_bins == np.count_nonzero(params.keeps(table.sigma)) < folded.size
        assert table.q.tobytes() == want[:, table.kept_bins - 1].tobytes()

    @pytest.mark.parametrize("bits", [2, 3, 6])
    def test_median_of_looked_up_phases_matches_theta_of(self, bits):
        # A round reads each median's phase and sigma off its folded bin;
        # they must be the picked bin's theta_of and sigma_of on either side
        # of the fold, and at its ends 0 and N/2.
        grid = PhaseGrid(bits)
        w = WalkOperator.from_dense(random_full_matrix(bits, 3, 4))
        est = CircuitSve(w, np.ones(4), grid)
        rng = np.random.default_rng(bits)
        rounds = [est.round(rng) for _ in range(400)]
        bins, theta_est, sigma_est = (np.concatenate(c) for c in zip(*rounds))
        assert theta_est.tolist() == grid.theta_of(bins).tolist()
        assert sigma_est.tolist() == grid.sigma_of(bins, w.fro).tolist()
        # The 3 x 4 walk's kernel group sits at pi, bin N/2; the coarse grids
        # put medians past N/2 too.
        assert np.any(bins == grid.size // 2)
        assert np.any(bins > grid.size // 2) or bits > 3

    def test_round_picks_the_median_of_its_draws(self):
        # A 3-bit grid and 2 ceil(log2 mn) + 1 = 13 rounds make folded ties
        # in nearly every group. Each group's bins, both sides of the fold
        # apart, must follow the median's law: folded bin f with its
        # probability, then N - f with the far-side chance given f.
        w = WalkOperator.from_dense(random_full_matrix(83, 5, 8))
        grid = PhaseGrid(3)
        x = np.ones(8)
        est = CircuitSve(w, x, grid)
        law = circuit_sve_law(w, x, grid)
        assert law.groups.tolist() == est.carrying.tolist()
        rng = np.random.default_rng(5)
        runs = 4000
        bins = np.array([est.round(rng)[0] for _ in range(runs)])
        n, half = grid.size, grid.size // 2
        for k in range(len(law.groups)):
            expected = np.zeros(n)
            expected[: half + 1] = law.folded[k] * (1.0 - law.far[k])
            expected[n - np.arange(1, half)] += law.folded[k, 1:half] * law.far[k, 1:half]
            counts = np.bincount(bins[:, k], minlength=n)
            assert merged_chi_pvalue(counts, expected * runs) > 0.001

    def test_walk_holds_only_the_latest_grids_tables(self):
        # Grids of 10 to 16 bits on 64 groups total about 2^23 entries, twice
        # the cap; only the 16-bit grid's median table stays held.
        w = WalkOperator.from_dense(random_full_matrix(62, 64, 64))
        w.phase_groups()
        tracemalloc.start()
        try:
            for bits in range(10, 17):
                CircuitSve(w, np.ones(64), PhaseGrid(bits)).round(np.random.default_rng(bits))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = w.median_table(PhaseGrid(16))
        size = table.keys.nbytes + table.q.nbytes + table.sigma.nbytes
        assert size <= held < 1.05 * size

    def test_kernels_built_once_per_walk_and_grid(self, monkeypatch):
        built = []
        kernel = qsim.qpe_bin_probabilities
        def counting(theta, grid):
            built.extend(np.atleast_1d(theta).tolist())
            return kernel(theta, grid)

        monkeypatch.setattr(qsim, "qpe_bin_probabilities", counting)
        w = WalkOperator.from_dense(random_full_matrix(80, 4, 6))
        thetas = w.phase_groups().theta.tolist()
        x = np.ones(6)
        rng = np.random.default_rng(0)
        params = ProjectionParams(sigma=0.5 * w.fro)
        grid = projection_grid(params, w.fro)
        first = CircuitSve(w, x, grid)
        # Construction takes the table, which has a row for every group;
        # kernels are counted by row, since a call builds a block of rows.
        assert built == thetas and len(first.carrying) == len(thetas) > 0
        built.clear()
        first.round(rng)
        assert CircuitSve(w, x, grid).table is first.table
        assert built == []
        # Estimations on the grid of a cut table reuse it, between
        # projections too; only a new grid builds kernels again.
        cut = w.median_table(grid, params)
        built.clear()
        for _ in range(2):
            threshold_project(w, x, params, rng, path="circuit")
            assert CircuitSve(w, x, grid).table is cut
        assert built == []
        CircuitSve(w, x, PhaseGrid(grid.bits + 1)).round(rng)
        assert built == thetas


class TestFlagTable:
    """The median table cut for projections: its kept bins and q."""

    @pytest.mark.parametrize("bits", [3, 9, 14])
    def test_median_cdf_matches_the_binomial_tail(self, bits):
        # 14 bits makes one row a block of its own; 3 bits leaves one bin
        # between the folded ends.
        w = WalkOperator.from_dense(random_full_matrix(84, 6, 8))
        params = ProjectionParams(sigma=0.4 * w.fro)
        grid = PhaseGrid(bits)
        table = w.median_table(grid, params)
        folded = grid.size // 2 + 1
        assert table.grid == grid and table.cut == params.cut
        assert table.sigma.tolist() == grid.sigma_of(np.arange(folded), w.fro).tolist()
        assert table.kept_bins == np.count_nonzero(table.sigma >= params.cut) > 0
        assert np.all(table.sigma[: table.kept_bins] >= params.cut)
        assert np.all(np.diff(table.keys) >= 0.0)
        med = table.keys.reshape(-1, folded) - np.arange(len(table.q))[:, None]
        rounds = boost_rounds(w.m, w.n)
        for g, theta in enumerate(w.phase_groups().theta):
            want = np.cumsum(folded_median_law(theta, grid, rounds))
            assert med[g, -1] == 1.0
            assert np.max(np.abs(med[g] - want)) <= 1e-13
            assert table.q[g] == pytest.approx(want[table.kept_bins - 1], rel=1e-12, abs=1e-300)

    def test_uncut_table_keeps_no_bin(self):
        w = WalkOperator.from_dense(random_full_matrix(84, 6, 8))
        table = w.median_table(PhaseGrid(5))
        assert table.cut is None and table.kept_bins == 0
        assert table.q.tolist() == [0.0] * len(w.phase_groups())

    def test_built_once_per_grid_and_cut(self, monkeypatch):
        built = []
        kernel = qsim.qpe_bin_probabilities
        def counting(theta, grid):
            built.extend(np.atleast_1d(theta).tolist())
            return kernel(theta, grid)

        monkeypatch.setattr(qsim, "qpe_bin_probabilities", counting)
        w = WalkOperator.from_dense(random_full_matrix(80, 4, 6))
        thetas = w.phase_groups().theta.tolist()
        params = ProjectionParams(sigma=0.5 * w.fro)
        first = w.median_table(PhaseGrid(7), params)
        assert built == thetas and first.cut == params.cut
        built.clear()
        # The cut alone decides the table: a retry cap does not rebuild it.
        capped = ProjectionParams(sigma=params.sigma, kappa=params.kappa, max_iterations=5)
        assert w.median_table(PhaseGrid(7), capped) is first
        assert built == []
        # A new cut or a new grid rebuilds it.
        other = w.median_table(PhaseGrid(7), ProjectionParams(sigma=0.6 * w.fro))
        assert built == thetas and other.kept_bins < first.kept_bins
        built.clear()
        w.median_table(PhaseGrid(8), params)
        assert built == thetas

    def test_walk_holds_only_the_latest_table(self):
        # 64 groups on cut grids of 10 to 16 bits; only the 16-bit table
        # stays, and it holds F_med once, in its keys.
        w = WalkOperator.from_dense(random_full_matrix(62, 64, 64))
        w.phase_groups()
        params = ProjectionParams(sigma=0.3 * w.fro)
        tracemalloc.start()
        try:
            for bits in range(10, 17):
                table = w.median_table(PhaseGrid(bits), params)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = table.keys.nbytes + table.q.nbytes + table.sigma.nbytes
        assert size <= held < 1.05 * size

    def test_cap_raises_before_allocating(self):
        # 64 groups x (2^16 + 1) folded bins of a 17-bit grid are just over
        # REGISTER_CAP; the 16-bit grid's table fits.
        w = WalkOperator.from_dense(random_full_matrix(62, 64, 64))
        groups = len(w.phase_groups())
        params = ProjectionParams(sigma=0.3 * w.fro)
        assert groups * (PhaseGrid(16).size // 2 + 1) <= REGISTER_CAP
        assert groups * (PhaseGrid(17).size // 2 + 1) > REGISTER_CAP
        tracemalloc.start()
        try:
            with pytest.raises(RegisterCapError, match="register of "):
                w.median_table(PhaseGrid(17), params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestQuantumState:
    def test_measurement_distribution(self):
        state = QuantumState(np.array([0.6, 0.0, 0.8]), (3,))
        rng = np.random.default_rng(8)
        draws = [state.measure(rng)[0] for _ in range(2000)]
        counts = np.bincount(draws, minlength=3)
        assert counts[1] == 0
        assert counts[2] / 2000 == pytest.approx(0.64, abs=0.04)

    def test_norm_validation(self):
        with pytest.raises(MatrixError):
            QuantumState(np.array([1.0, 1.0]), (2,))
        with pytest.raises(MatrixError):
            QuantumState(np.array([1.0]), (2,))

    def test_fidelity(self):
        s1 = QuantumState(np.array([1.0, 0.0]), (2,))
        s2 = QuantumState(np.array([0.0, 1.0]), (2,))
        assert s1.fidelity(s2) == 0.0
        assert s1.fidelity(s1) == pytest.approx(1.0, abs=1e-12)

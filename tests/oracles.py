"""Independent reference implementations used only to check the package.

Oracles may read qrecsim data (walk arrays, ``SvdFactorization`` fields,
``PhaseGrid``, caps, error types), but never call the package function they
are compared against: their value is that they reach the same quantities by
different algorithms. Beyond that data, ``calibration_ratio`` builds on the
package's two bounds, and several oracles on its input checks. None of this
is package API.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import stats

from qrecsim.errors import ColdStartError, EmptyRowError, MatrixError, RegisterCapError
from qrecsim.linalg import SvdFactorization, as_matrix, as_vector, check_real
from qrecsim.qproject import BETA_SQ_FLOOR
from qrecsim.qsim import (
    COMPONENT_TOL,
    COS_TOL,
    REGISTER_CAP,
    PhaseGrid,
    SveOutput,
    WalkOperator,
    boost_rounds,
)
from qrecsim.recsys import bad_sample_bound, typical_user_bound


def jacobi_eigenvalues(sym: np.ndarray, sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Deliberately not LAPACK: plain Givens rotations zeroing one off-diagonal
    pair at a time until the off-diagonal mass is negligible.
    """
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("jacobi oracle needs a symmetric matrix")
    for _ in range(sweeps):
        off = np.sqrt(np.sum(a**2) - np.sum(np.diag(a) ** 2))
        if off < tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def leaf_scan_weights(table, i: int = 0) -> dict[tuple[int, int], float]:
    """Recompute every internal weight of tree i by brute-force leaf scans.

    Sums each prefix's held leaves with math.fsum-free plain accumulation in
    leaf order, which is an intentionally different summation order than the
    tree's pairwise child sums.
    """
    first = 1 << table.depth
    leaves = {
        j: float(table.nodes[i, first + j]) for j in range(table.size) if table.held[i, j]
    }
    out: dict[tuple[int, int], float] = {}
    for t in range(table.depth + 1):
        shift = table.depth - t
        for prefix in range(1 << t):
            total = 0.0
            hit = False
            for j, w in sorted(leaves.items()):
                if j >> shift == prefix:
                    total += w
                    hit = True
            if hit:
                out[(t, prefix)] = total
    return out


def reference_insert(store, i: int, j: int, value) -> int:
    """``MatrixStore.insert`` of a float ``value``, composed from TreeTable's
    checked calls.

    Reads the old leaf (which checks i and j), writes the row leaf with
    ``update``, then the row's norm leaf from the new row root. A nonzero
    value whose square is not a normal float (below 2^-1022) is refused
    first, then a square that overflows; when the norm tree refuses an
    infinite row root or its root overflows, both leaves are written back
    with ``update`` and their held flags reset, which returns every sum to
    its earlier bits, and the store's overflow error is raised.
    """
    rows, norm = store.rows, store.norm_tree
    weight, sign, held = rows.leaf(i, j)
    if not math.isfinite(value):
        raise MatrixError(f"entry value must be a finite real number, got {value!r}")
    if value != 0.0 and value * value < 2.0**-1022:
        raise MatrixError(f"entry ({i}, {j}) too small: its square underflows")
    overflow = MatrixError(f"entry ({i}, {j}) too large: ||A||_F^2 overflows")
    if math.isinf(value * value):  # update would refuse it before any write
        raise overflow
    touches = rows.update(i, j, value * value, int(value > 0.0) - int(value < 0.0))
    try:
        touches += norm.update(0, i, rows.root(i), 1)
        refused = not math.isfinite(norm.root(0))
    except MatrixError:  # an infinite row root, refused before any write
        refused = True
    if refused:
        rows.update(i, j, weight, sign)
        rows.held[i, j] = held
        row_held = bool(rows.held[i].any())
        norm.update(0, i, rows.root(i), int(row_held))
        norm.held[0, i] = row_held
        raise overflow
    store.node_touches += touches
    return touches


def reference_user_record(ctx, i: int) -> tuple[float, np.ndarray, int, np.ndarray | None]:
    """(beta^2, state, retry budget, inverse CDF) that ``RecommendContext``
    keeps for user i, composed step by step from the context's data.

    The cold-start test comes first, then the row is validated and divided
    by ``np.linalg.norm``; beta^2 is ``np.sum`` of the squared overlaps with
    the kept columns; the state is their combination divided by its norm;
    the CDF checks ``state**2`` as ``Generator.choice`` does, with sqrt(eps)
    formed per call, and normalizes its cumulative sum; the budget is
    ``max_iterations`` or ceil((ln n + 7) / beta^2), a bare ceil(ln n + 7)
    at or below BETA_SQ_FLOOR.
    """
    m, n = ctx.dense.shape
    if not 0 <= i < m:
        raise MatrixError(f"user index {i} outside [0, {m})")
    row = ctx.dense[i]
    if not row.any():
        raise ColdStartError(f"cold-start user: user {i} has no stored entries")
    vec = as_vector(row, size=n)
    norm = np.linalg.norm(vec)
    if norm <= 0.0:
        raise MatrixError("cannot normalize the zero vector")
    alpha = ctx.v_kept.T @ (vec / norm)
    beta_sq = float(np.sum(alpha**2))
    cdf = None
    if beta_sq <= 0.0:
        state = np.zeros(n)
    else:
        state = ctx.v_kept @ alpha
        state /= np.linalg.norm(state)
        p = state**2
        atol = np.sqrt(np.finfo(np.float64).eps)
        if (p < 0.0).any() or not (abs(p.sum(axis=-1) - 1.0) <= atol).all():
            raise MatrixError("probabilities must be non-negative and sum to 1")
        cdf = p.cumsum(axis=-1)
        cdf /= cdf[..., -1:]
    base = np.log(n) + 7.0
    limit = int(np.ceil(base if beta_sq <= BETA_SQ_FLOOR else base / beta_sq))
    return beta_sq, state, ctx.params.max_iterations or limit, cdf


def prepare_vector_state(table, i: int = 0) -> np.ndarray:
    """Tree i's conditional-rotation cascade, one node at a time.

    Walks the tree level by level from the root, splitting each reached
    node's amplitude between its children as amp * sqrt(child / node), and
    applies the stored sign at the leaf level. A child of zero weight is not
    reached unless it is a held leaf. The reference for ``TreeTable.states``.
    """
    nodes = table.nodes[i].tolist()
    held = table.held[i].tolist()
    signs = table.signs[i].tolist()
    if nodes[1] <= 0.0:
        raise EmptyRowError("empty-row sample: cannot prepare a state from zero weight")
    first = 1 << table.depth
    level_amp = {1: 1.0}
    for t in range(table.depth):
        last = t == table.depth - 1
        next_amp: dict[int, float] = {}
        for node, amp in level_amp.items():
            for child in (2 * node, 2 * node + 1):
                weight = nodes[child]
                leaf = child - first
                held_leaf = last and leaf < table.size and held[leaf]
                if weight <= 0.0 and not held_leaf:
                    continue
                value = amp * np.sqrt(weight / nodes[node])
                if last:
                    value *= signs[leaf]
                next_amp[child] = value
        level_amp = next_amp
    out = np.zeros(table.size)
    for node, amp in level_amp.items():
        if node - first < table.size:
            out[node - first] = amp
    if table.depth == 0:
        out[0] = float(signs[0]) * level_amp[1]
    return out


def power_iteration_top_sigma(a: np.ndarray, iters: int = 2000) -> float:
    """Largest singular value via power iteration on A^T A."""
    rng = np.random.default_rng(12345)
    v = rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ (a.T @ (a @ v))))


def dft_phase_distribution(theta: float, bits: int) -> np.ndarray:
    """Single-round estimate distribution straight from the definition.

    Builds the length-N vector e^{i a theta}/N explicitly and takes squared
    magnitudes of its discrete Fourier transform by direct O(N^2) summation.
    """
    n = 1 << bits
    amps = np.zeros(n, dtype=np.complex128)
    for b in range(n):
        acc = 0.0 + 0.0j
        for a in range(n):
            acc += np.exp(1j * a * theta - 2j * np.pi * a * b / n)
        amps[b] = acc / n
    probs = np.abs(amps) ** 2
    return probs / probs.sum()


# -- states and the walk's projector algebra -----------------------------------

AMP_TOL = 1e-10


@dataclass(frozen=True)
class QuantumState:
    """Amplitude vector over a register with named factor dimensions."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        if int(np.prod(self.dims)) != self.vec.shape[0]:
            raise MatrixError(f"dims {self.dims} do not match vector length {self.vec.shape[0]}")
        norm = np.linalg.norm(self.vec)
        if abs(norm - 1.0) > AMP_TOL:
            raise MatrixError(f"state norm {norm} deviates from 1 beyond {AMP_TOL}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.vec) ** 2

    def measure(self, rng: np.random.Generator) -> tuple[int, ...]:
        flat = int(rng.choice(self.vec.shape[0], p=self.probabilities()))
        return np.unravel_index(flat, self.dims)

    def measure_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Flat outcome indices of ``count`` independent measurements."""
        return rng.choice(self.vec.shape[0], size=count, p=self.probabilities())

    def fidelity(self, other: "QuantumState") -> float:
        return float(np.abs(np.vdot(self.vec, other.vec)))


# Ceiling on the joint dimension when W is formed densely.
MATERIALIZE_CAP = 1 << 11


class OracleWalk(WalkOperator):
    """The walk's reflections applied matrix-free two ways, and densely.

    Q maps x to A~_i x_j (``apply_Q``, with adjoint ``apply_Qt``). P maps y
    to y_i |i>|A_i>; empty rows are outside its domain, so applying P to
    amplitude on such a row is an error. U and V follow from the projectors;
    ``apply_U_completed`` and ``apply_V_completed`` reach the same
    reflections through explicit Householder basis completions.
    ``matrices`` gives P and Q densely, ``materialize_W`` the mn x mn walk,
    and ``dense_phase_groups`` its rotation planes over the whole joint
    space, the reference for the package's span decomposition.
    """

    def apply_Q(self, x: np.ndarray) -> np.ndarray:
        return np.outer(self.a_tilde, np.asarray(x))

    def apply_Qt(self, s: np.ndarray) -> np.ndarray:
        return self.a_tilde @ s

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense P (mn x m) and Q (mn x n); empty rows give zero columns."""
        mn = self.m * self.n
        p = np.zeros((mn, self.m))
        for i in range(self.m):
            p[i * self.n : (i + 1) * self.n, i] = self.row_states[i]
        q = np.zeros((mn, self.n))
        for j in range(self.n):
            q[j :: self.n, j] = self.a_tilde
        return p, q

    def materialize_W(self) -> np.ndarray:
        mn = self.m * self.n
        if mn > MATERIALIZE_CAP:
            raise RegisterCapError(
                f"joint dimension {mn} exceeds the dense-walk cap {MATERIALIZE_CAP}"
            )
        p, q = self.matrices()
        u = 2.0 * (p @ p.T) - np.eye(mn)
        v = 2.0 * (q @ q.T) - np.eye(mn)
        return u @ v

    @cached_property
    def dense_phase_groups(self) -> list["DenseGroup"]:
        return dense_groups(self.materialize_W())

    def apply_P(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        empty = np.linalg.norm(self.row_states, axis=1) == 0.0
        if np.any(np.abs(y[empty]) > AMP_TOL):
            raise MatrixError("amplitude on empty row: P is undefined there")
        return y[:, None] * self.row_states

    def apply_Pt(self, s: np.ndarray) -> np.ndarray:
        return np.sum(self.row_states * s, axis=1)

    def apply_U(self, s: np.ndarray) -> np.ndarray:
        """Reflection 2 P P^T - I about the span of the row states."""
        y = self.apply_Pt(s)
        return 2.0 * y[:, None] * self.row_states - s

    def apply_V(self, s: np.ndarray) -> np.ndarray:
        """Reflection 2 Q Q^T - I about the span of the norm-weighted columns."""
        x = self.apply_Qt(s)
        return 2.0 * np.outer(self.a_tilde, x) - s

    def apply_W(self, s: np.ndarray) -> np.ndarray:
        return self.apply_U(self.apply_V(s))

    def apply_W_inverse(self, s: np.ndarray) -> np.ndarray:
        return self.apply_V(self.apply_U(s))

    @cached_property
    def _row_householders(self) -> list[np.ndarray | None]:
        mats: list[np.ndarray | None] = []
        for r in self.row_states:
            mats.append(None if np.linalg.norm(r) == 0.0 else _householder_to(r))
        return mats

    @cached_property
    def _norm_householder(self) -> np.ndarray:
        return _householder_to(self.a_tilde)

    def apply_U_completed(self, s: np.ndarray) -> np.ndarray:
        """U as (basis change) (reflection about |j>=0) (basis change back).

        Per row, a unitary sending e_0 to |A_i> conjugates the reflection
        that fixes column 0 and negates the rest. Rows with no entries get an
        identity basis change, so results there differ from the projector
        route; agreement is only claimed for matrices without empty rows.
        """
        out = np.empty_like(s)
        for i, h in enumerate(self._row_householders):
            row = s[i] if h is None else h @ s[i]
            row = np.concatenate(([row[0]], -row[1:]))
            out[i] = row if h is None else h @ row
        return out

    def apply_V_completed(self, s: np.ndarray) -> np.ndarray:
        h = self._norm_householder
        cols = h @ s
        cols = np.vstack((cols[:1], -cols[1:]))
        return h @ cols


def _householder_to(target: np.ndarray) -> np.ndarray:
    """Symmetric orthogonal matrix sending e_0 to the given unit vector."""
    dim = target.shape[0]
    w = target.copy()
    w[0] -= 1.0
    norm = np.linalg.norm(w)
    if norm < 1e-14:
        return np.eye(dim)
    w /= norm
    return np.eye(dim) - 2.0 * np.outer(w, w)


@dataclass
class DenseGroup:
    """Folded-phase invariant subspace of W with a joint-space basis: the
    columns of ``basis`` are orthonormal length-mn states."""

    theta: float
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def overlap_sq(self, s_flat: np.ndarray) -> float:
        return float(np.linalg.norm(self.basis.T @ s_flat) ** 2)


def dense_groups(w: np.ndarray) -> list[DenseGroup]:
    """Split a real orthogonal matrix into folded-phase invariant subspaces.

    W commutes with its symmetrization (W + W^T) / 2, whose eigenvalues are
    cos(theta) and whose eigenspaces are exactly the folded rotation planes.
    eigh yields an orthonormal real basis even for the high-multiplicity
    fixed and negated spaces, where a plain eigendecomposition of W can
    return a numerically dependent set. The groups span every dimension.
    """
    sym_vals, sym_vecs = np.linalg.eigh((w + w.T) / 2.0)
    thetas = np.arccos(np.clip(sym_vals, -1.0, 1.0))
    order = np.argsort(thetas, kind="stable")
    groups: list[DenseGroup] = []
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and sym_vals[order[start]] - sym_vals[order[stop]] < COS_TOL:
            stop += 1
        idx = order[start:stop]
        groups.append(DenseGroup(theta=float(np.mean(thetas[idx])), basis=sym_vecs[:, idx]))
        start = stop
    total = sum(g.dim for g in groups)
    if total != w.shape[0]:
        raise MatrixError(f"phase groups span {total} of {w.shape[0]} dimensions")
    return groups


def max_error(out: SveOutput) -> float:
    """Largest |sigma_est - sigma| over components carrying amplitude."""
    errs = [abs(c.sigma_est - c.sigma) for c in out.components if c.amplitude > 0.0]
    return max(errs, default=0.0)


def qpe_bin_probabilities(theta, grid: PhaseGrid) -> np.ndarray:
    """Single-round outcome distribution for an eigenphase theta in [0, pi]
    over all N bins; for an array of phases, one distribution per phase
    along a new last axis.

    |c_b|^2 = sin^2(N d_b / 2) / (N^2 sin^2(d_b / 2)) with d_b = theta - b w.
    The numerator is the same for every bin and cancels, and sin(d_b / 2)
    comes from the angle-difference formula on the folded half phases:
    bins b <= N/2 take sin(theta/2) cos(b w/2) - cos(theta/2) sin(b w/2) and
    bin N - f takes the sum form. This is the arithmetic of the package's
    folded kernel, bin by bin, so tests that compare against it at rounding
    level check the fold, the normalization and what is built on them; the
    formula itself is checked against the DFT and a long-double evaluation,
    and the median law built on it against a long-double one
    (``test_median_cdf_matches_the_long_double_textbook_law``).
    A phase within |sin(d_b / 2)| < 1e-15 of bin b puts all of its mass
    there. The mass within one bin of theta is at least 8 / pi^2.
    """
    half = grid.theta_of(np.arange(grid.size // 2 + 1)) / 2.0
    cos_half, sin_half = np.cos(half), np.sin(half)
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    a, b = np.sin(theta / 2.0), np.cos(theta / 2.0)
    near = a * cos_half - b * sin_half
    far = a * cos_half[1:-1] + b * sin_half[1:-1]
    sines = np.concatenate([near, far[..., ::-1]], axis=-1)
    on_grid = np.abs(sines) < 1e-15
    with np.errstate(divide="ignore"):
        probs = 1.0 / (sines * sines)
    probs = np.where(on_grid.any(axis=-1, keepdims=True), on_grid * 1.0, probs)
    return probs / probs.sum(axis=-1, keepdims=True)


def sample_phase_bins(
    theta: float, grid: PhaseGrid, rounds: int, rng: np.random.Generator
) -> np.ndarray:
    """One group's single-round outcomes, drawn by ``rng.choice`` on the kernel."""
    return rng.choice(grid.size, size=rounds, p=qpe_bin_probabilities(theta, grid))


def median_bin(bins: np.ndarray, thetas: np.ndarray):
    """Bin whose folded phase (``thetas``, the bins' ``theta_of``) is the
    stable median of the realized ones, with that phase."""
    k = int(np.argsort(thetas, kind="stable")[len(bins) // 2])
    return int(bins[k]), float(thetas[k])


def sequential_round(
    thetas, weights, m: int, n: int, grid: PhaseGrid, rng: np.random.Generator
) -> list[tuple[int, int, float]]:
    """(group, median bin, its folded phase) for each group carrying weight,
    drawing each group's median in turn: one uniform inverts its
    ``folded_median_cdf`` to a folded bin f, and a second picks bin N - f
    over f in proportion to their ``qpe_bin_probabilities`` masses."""
    out = []
    for gid, (theta, weight) in enumerate(zip(thetas, weights)):
        if weight >= COMPONENT_TOL**2:
            cdf = folded_median_cdf(theta, grid, boost_rounds(m, n))
            f = min(int(cdf.searchsorted(rng.random(), side="right")), grid.size // 2)
            mass = qpe_bin_probabilities(theta, grid)
            away = mass[(grid.size - f) % grid.size]
            far = rng.random() * (mass[f] + away) < away
            b = (grid.size - f) % grid.size if far else f
            out.append((gid, b, grid.theta_of(b)))
    return out


def qpe_joint_state(wop: OracleWalk, s: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """One full phase-estimation round as a (2^bits, m, n) amplitude array.

    Hadamards put the phase register in uniform superposition, controlled
    walk powers build W^a s in branch a, and the inverse Fourier transform
    concentrates each eigencomponent near its phase bin. Raises
    RegisterCapError when the mn * 2^bits amplitudes exceed the package's cap.
    """
    total = wop.m * wop.n * grid.size
    if total > REGISTER_CAP:
        raise RegisterCapError(f"register of {total} amplitudes exceeds the cap {REGISTER_CAP}")
    n = grid.size
    stack = np.empty((n, wop.m, wop.n), dtype=np.complex128)
    current = np.asarray(s, dtype=np.complex128)
    for a in range(n):
        stack[a] = current
        if a + 1 < n:
            current = wop.apply_W(current)
    return np.fft.fft(stack, axis=0) / n


def uncompute_residual_mass(wop: OracleWalk, s: np.ndarray, grid: PhaseGrid) -> float:
    """Ancilla weight left outside |0...0> after copy-and-uncompute.

    Runs one estimation round, copies the realized bin to an output register,
    and inverts the round. For inputs that are not eigenstates the inversion
    cannot fully disentangle the phase register; the leftover mass equals
    1 - sum_b ||(1/N) sum_a e^{2 pi i a b / N} W^{-a} psi_b||^2, which this
    returns so tests can quantify the approximation instead of ignoring it.
    """
    joint = qpe_joint_state(wop, s, grid)
    n = grid.size
    clean = 0.0
    for b in range(n):
        psi = joint[b]
        acc = np.zeros_like(psi)
        phases = np.exp(2j * np.pi * b * np.arange(n) / n)
        for a in range(n):
            acc += phases[a] * psi
            if a + 1 < n:
                psi = wop.apply_W_inverse(psi)
        clean += float(np.linalg.norm(acc / n) ** 2)
    return max(0.0, 1.0 - clean)


# -- the circuit projection's law ---------------------------------------------

# A keep probability this close to 0 or 1 counts as certain.
CERTAIN_TOL = 1e-12


@dataclass(frozen=True)
class CircuitProjectionLaw:
    """Exact law of one circuit projection, for the groups carrying weight.

    ``q[k]`` is the probability that group ``groups[k]`` keeps its median
    estimate at or above the cut in one attempt. ``kept_sets`` maps each
    accepted kept set (sorted group ids) to P(S) beta_S^2 / Z, ``products``
    gives P(product j) = sum_S P(S) (V_S V_S^T x)_j^2 / Z, and ``inv_z`` is
    1 / Z, the mean number of attempts.
    """

    groups: np.ndarray
    q: np.ndarray
    kept_sets: dict[tuple[int, ...], float]
    products: np.ndarray
    inv_z: float


def _carrying_groups(table, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V^T x for the unit input, each group's column stop, the groups whose
    weight reaches COMPONENT_TOL^2) from a phase table."""
    coords = table.v.T @ (np.asarray(x, dtype=np.float64) / np.linalg.norm(x))
    stops = np.append(table.start[1:], len(coords))
    weights = np.array([np.sum(coords[a:b] ** 2) for a, b in zip(table.start, stops)])
    return coords, stops, np.flatnonzero(weights >= COMPONENT_TOL**2)


def circuit_projection_law(
    wop: WalkOperator, x, sigma: float, kappa: float, max_uncertain: int = 12
) -> CircuitProjectionLaw:
    """The law the estimate-flag-measure procedure implies on ``wop``.

    Group g's single draw lands on a bin whose estimate cos(theta_b / 2)
    ||A||_F reaches the cut sigma (1 - kappa / 2) with probability p_g, its
    kernel mass there; the median of r = boost_rounds(m, n) draws reaches it
    when at least (r + 1) / 2 draws do, so q_g = P(Binomial(r, p_g) >= (r +
    1) / 2), independently across groups. An attempt keeping S succeeds with
    probability beta_S^2. Enumerates every subset of the groups whose q_g is
    not within CERTAIN_TOL of 0 or 1, and refuses (ValueError) when there are
    more than ``max_uncertain`` of them.
    """
    table = wop.phase_groups()
    fro = wop.fro
    grid = PhaseGrid.for_sigma_precision((kappa / 2.0) * sigma / fro)
    cut = sigma * (1.0 - kappa / 2.0)
    coords, stops, groups = _carrying_groups(table, x)
    bins = np.arange(grid.size)
    reaches = np.cos(grid.theta_of(bins) / 2.0) * fro >= cut
    p = np.array([qpe_bin_probabilities(table.theta[g], grid)[reaches].sum() for g in groups])
    rounds = boost_rounds(wop.m, wop.n)
    q = stats.binom.sf((rounds + 1) // 2 - 1, rounds, np.clip(p, 0.0, 1.0))
    uncertain = np.flatnonzero((q > CERTAIN_TOL) & (q < 1.0 - CERTAIN_TOL))
    if len(uncertain) > max_uncertain:
        raise ValueError(f"{len(uncertain)} uncertain groups exceed {max_uncertain}")
    certain = [k for k in range(len(groups)) if q[k] >= 1.0 - CERTAIN_TOL]
    kept_sets, products = {}, np.zeros(len(coords))
    for picks in itertools.product((False, True), repeat=len(uncertain)):
        chosen = sorted(certain + [int(k) for k, on in zip(uncertain, picks) if on])
        chance = np.prod([q[k] if on else 1.0 - q[k] for k, on in zip(uncertain, picks)])
        cols = [c for k in chosen for c in range(table.start[groups[k]], stops[groups[k]])]
        survivor = table.v[:, cols] @ coords[cols]
        kept_sets[tuple(int(groups[k]) for k in chosen)] = chance * float(survivor @ survivor)
        products += chance * survivor**2
    z = sum(kept_sets.values())
    kept_sets = {s: w / z for s, w in kept_sets.items()}
    return CircuitProjectionLaw(groups, q, kept_sets, products / z, 1.0 / z)


def folded_median_cdf(theta: float, grid: PhaseGrid, rounds: int) -> np.ndarray:
    """P(the median of ``rounds`` single-round draws lands at or below folded
    bin f), f = 0 .. N/2, where bins b and N - b fold onto min(b, N - b): the
    binomial tail of the folded single-draw CDF."""
    bins = np.arange(grid.size)
    folded = np.bincount(np.minimum(bins, grid.size - bins),
                         weights=qpe_bin_probabilities(theta, grid))
    return stats.binom.sf((rounds + 1) // 2 - 1, rounds, np.clip(np.cumsum(folded), 0.0, 1.0))


def folded_median_law(theta: float, grid: PhaseGrid, rounds: int) -> np.ndarray:
    """P(the median of ``rounds`` single-round draws lands on folded bin f)."""
    return np.diff(folded_median_cdf(theta, grid, rounds), prepend=0.0)


@dataclass(frozen=True)
class CircuitSveLaw:
    """Exact law of one circuit estimation, for the groups carrying weight.

    Row k of ``folded`` is group ``groups[k]``'s ``folded_median_law``, and
    ``far[k, f]`` the chance that its median lands on bin N - f rather than
    f, given folded bin f. A draw's side is independent of its folded bin and
    of every other draw, and the stable median picks a draw by folded phases
    and draw order alone, so the picked draw keeps a single draw's odds:
    their kernel masses' ratio. ``far`` is 0 at f = 0 and N/2, one bin each.
    """

    groups: np.ndarray
    folded: np.ndarray
    far: np.ndarray


def circuit_sve_law(wop: WalkOperator, x, grid: PhaseGrid) -> CircuitSveLaw:
    """The law boosted estimation implies on ``wop`` for input ``x``: each
    carrying group's median of boost_rounds(m, n) single-round draws."""
    table = wop.phase_groups()
    _, _, groups = _carrying_groups(table, x)
    rounds = boost_rounds(wop.m, wop.n)
    half = grid.size // 2
    folded = np.array([folded_median_law(table.theta[g], grid, rounds) for g in groups])
    far = np.zeros_like(folded)
    for k, g in enumerate(groups):
        mass = qpe_bin_probabilities(table.theta[g], grid)
        near, away = mass[1:half], mass[:half:-1]
        np.divide(away, near + away, out=far[k, 1:half], where=near + away > 0.0)
    return CircuitSveLaw(groups, folded, far)


def merged_chi_pvalue(counts: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square with bins of expectation < 5 pooled into one bucket. A
    pooled bucket of expectation 0 (every bin in it impossible) gives p = 0
    if it holds a count, and otherwise is left out; a single bucket left
    (a certain outcome, which was all that was seen) gives p = 1."""
    mask = expected >= 5.0
    if (~mask).any():
        pooled, pooled_count = expected[~mask].sum(), counts[~mask].sum()
        if pooled == 0.0 and pooled_count > 0:
            return 0.0
        counts, expected = counts[mask], expected[mask]
        if pooled > 0.0:
            counts = np.append(counts, pooled_count)
            expected = np.append(expected, pooled)
    if len(expected) == 1:
        return 1.0
    expected = expected * counts.sum() / expected.sum()
    return float(stats.chisquare(counts, expected).pvalue)


# -- spectral projections of a factorization -----------------------------------

# Reconstruction tolerance, relative to the Frobenius norm of the input.
RECONSTRUCT_TOL = 1e-8


def reconstruct(
    a: np.ndarray, f: SvdFactorization, indices: Sequence[int] | None = None
) -> np.ndarray:
    """Sum of sigma_i u_i v_i^T over ``indices`` (default: all of them) for
    a factorization ``f`` of ``a``, with u_i from ``np.linalg.svd(a)``: the
    package keeps no U. ``f`` must hold a complete V from the same LAPACK
    route, so that u_i and v_i pair up with the same signs."""
    if f.v is None or f.v.shape != (f.shape[1], f.shape[1]):
        raise MatrixError("reconstruction needs a factorization with a complete V")
    if np.shape(a) != f.shape:
        raise MatrixError(f"shape mismatch {np.shape(a)} vs {f.shape}")
    idx = np.arange(f.rank) if indices is None else np.asarray(indices, dtype=int)
    if idx.size == 0:
        return np.zeros(f.shape)
    if idx.min() < 0 or idx.max() >= f.rank:
        raise MatrixError("reconstruction index outside the positive spectrum")
    u = np.linalg.svd(a)[0]
    return (u[:, idx] * f.sigma[idx]) @ f.v[:, idx].T


def truncate_top_k(a: np.ndarray, f: SvdFactorization, k: int) -> np.ndarray:
    """Best rank-k approximation A_k (all of A when k >= rank)."""
    if k < 0:
        raise MatrixError(f"rank k must be >= 0, got {k}")
    return reconstruct(a, f, range(min(k, f.rank)))


def threshold_indices(f: SvdFactorization, sigma: float) -> list[int]:
    """Indices with sigma_i >= sigma (ties at the threshold are kept)."""
    if not np.isfinite(sigma) or sigma < 0:
        raise MatrixError(f"threshold must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return list(range(f.rank))
    return [i for i in range(f.rank) if f.sigma[i] >= sigma]


def band_indices(f: SvdFactorization, sigma: float, kappa: float) -> list[int]:
    """Indices in the admissible band (1-kappa)*sigma <= sigma_i < sigma."""
    _check_kappa(kappa)
    lo = (1.0 - kappa) * sigma
    return [i for i in range(f.rank) if lo <= f.sigma[i] < sigma]


def _check_kappa(kappa: float) -> None:
    if not np.isfinite(kappa) or not (0.0 < kappa < 1.0):
        raise MatrixError(f"kappa must lie in (0, 1), got {kappa}")


def _kept_indices(
    f: SvdFactorization, sigma: float, kappa: float, band_selector: Sequence[int]
) -> list[int]:
    band = set(band_indices(f, sigma, kappa))
    selected = [int(i) for i in band_selector]
    outside = sorted(set(selected) - band)
    if outside:
        raise MatrixError(
            f"band selector indices {outside} fall outside "
            f"[{(1.0 - kappa) * sigma:.6g}, {sigma:.6g})"
        )
    kept = sorted(set(threshold_indices(f, sigma)) | set(selected))
    return kept


def project_threshold(a: np.ndarray, f: SvdFactorization, sigma: float) -> np.ndarray:
    """A_{>=sigma}: keep exactly the singular directions with sigma_i >= sigma."""
    return reconstruct(a, f, threshold_indices(f, sigma))


def project_threshold_family(
    a: np.ndarray,
    f: SvdFactorization,
    sigma: float,
    kappa: float,
    band_selector: Sequence[int] = (),
) -> np.ndarray:
    """One member of the family A_{>=sigma,kappa}.

    Keeps every direction with sigma_i >= sigma plus the chosen subset of the
    band [(1-kappa)*sigma, sigma). A selector index outside the band is an
    input error.
    """
    return reconstruct(a, f, _kept_indices(f, sigma, kappa, band_selector))


def pseudo_project_row(
    f: SvdFactorization,
    x,
    sigma: float,
    kappa: float,
    band_selector: Sequence[int] = (),
) -> np.ndarray:
    """Orthogonal projection of a row vector onto span{v_i : i kept}.

    This is A_{>=sigma,kappa}^+ A_{>=sigma,kappa} applied to x, the classical
    shadow of the quantum threshold projection. Idempotent within 1e-10.
    """
    vec = as_vector(x, size=f.shape[1])
    kept = _kept_indices(f, sigma, kappa, band_selector)
    if not kept:
        return np.zeros_like(vec)
    basis = f.v[:, kept]
    return basis @ (basis.T @ vec)


# -- recommendation-quality statistics and bounds ------------------------------


def bad_mass(surrogate, truth) -> float:
    """Fraction of the surrogate's squared mass on cells where truth is 0."""
    sur = as_matrix(surrogate)
    tru = as_matrix(truth)
    if sur.shape != tru.shape:
        raise MatrixError(f"shape mismatch {sur.shape} vs {tru.shape}")
    total = float(np.sum(sur * sur))
    if total <= 0.0:
        raise MatrixError("surrogate has zero mass")
    return float(np.sum((sur * sur)[tru == 0.0]) / total)


def w_statistic(row, projected_row) -> float:
    """Per-user overhead ||row||^2 / ||projected row||^2 (inf if wiped out)."""
    r = np.asarray(row, dtype=np.float64)
    p = np.asarray(projected_row, dtype=np.float64)
    top = float(r @ r)
    bottom = float(p @ p)
    if top <= 0.0:
        raise ColdStartError("cold-start user: zero stored row")
    return float(np.inf) if bottom <= 0.0 else top / bottom


def calibration_ratio(eps: float, gamma: float, delta: float, zeta: float) -> float:
    """typical_user_bound / bad_sample_bound: the price of conditioning."""
    return typical_user_bound(eps, gamma, delta, zeta) / bad_sample_bound(eps)


def bound_threshold_error(
    err_k: float, eta: float, k: int, mu: float, p: float, norm_f: float
) -> float:
    """Bound on ||A - Ahat_{>=sigma}||_F at sigma = sqrt(mu/k) ||Ahat||_F.

    err_k is ||A - A_k||_F. The bound is
    err_k + (3 sqrt(eta) k^(1/4) mu^(-1/4) + sqrt(mu/p)) ||A||_F.
    Zero eta and mu are allowed (their terms vanish), so the degenerate
    no-perturbation call returns err_k alone.
    """
    check_real("positive", k=k, p=p, norm_f=norm_f)
    check_real("nonnegative", err_k=err_k, eta=eta, mu=mu)
    if eta > 0.0 and mu == 0.0:
        raise MatrixError("mu must be > 0 when eta is")
    spread = 0.0 if eta == 0.0 else 3.0 * np.sqrt(eta) * k**0.25 / mu**0.25
    return float(err_k + (spread + np.sqrt(mu / p)) * norm_f)


def expected_iterations(beta_sq: float) -> float:
    """Mean geometric waiting time 1 / beta_sq."""
    if not np.isfinite(beta_sq) or not 0.0 < beta_sq <= 1.0:
        raise MatrixError(f"success probability must be in (0, 1], got {beta_sq}")
    return 1.0 / beta_sq

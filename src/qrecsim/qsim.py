"""State-vector simulation of singular value estimation.

The simulator works on the joint row/column index space of an m x n matrix.
Two reflections U (about the span of the row states |i>|A_i>) and V (about
the span of the |A~>|j> states) compose into a walk W = U V whose rotation
planes encode the singular values: the plane containing the right singular
vector v_i rotates by theta_i with cos(theta_i / 2) = sigma_i / ||A||_F,
vectors orthogonal to the column space sit at theta = pi, and the orthogonal
complement of both spans is fixed (theta = 0). Estimating eigenphases of W
on |Q x> therefore estimates singular values in units of ||A||_F.

Two execution paths expose the same interface. The exact path diagonalizes
the matrix classically and rounds each true phase to the estimation grid; it
is deterministic and serves as the oracle. The circuit path materializes W,
splits states into its rotation planes, and samples phase-register outcomes
from the exact single-round kernel with median boosting, reproducing the
statistics of the quantum procedure without 2^t-fold register blowup per
boosting round (the rounds are iid per plane because the joint state is
block diagonal across planes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyRowError, MatrixError, RegisterCapError
from .linalg import SvdFactorization, svd, unit_vector
from .store import MatrixStore, RowTree

# Hard ceiling on simulated amplitudes (phase register times joint index).
REGISTER_CAP = 1 << 22
# Ceiling on the joint dimension when W must be formed densely.
MATERIALIZE_CAP = 1 << 11

# Finest estimation grid. Bin indices are int64, and a bin of 2 pi / 2^62 is
# already far below the float64 resolution of the phases it rounds, so a
# finer requested precision gets this grid.
MAX_GRID_BITS = 62

AMP_TOL = 1e-10
# Overlaps below this are treated as absent when reporting components.
COMPONENT_TOL = 1e-12
# Eigenphases of W closer than this fall into one phase group.
PHASE_TOL = 1e-8


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


def prepare_vector_state(tree: RowTree) -> np.ndarray:
    """Amplitudes produced by the conditional-rotation cascade over a tree.

    Walks the tree level by level, splitting each node's amplitude between
    its children in proportion to sqrt(child weight / node weight), and
    applies the stored sign at the leaf level. The result equals the row
    normalized by its length, but computed by the mechanism the store
    supports on hardware.
    """
    if tree.root <= 0.0:
        raise EmptyRowError("empty-row sample: cannot prepare a state from zero weight")
    level_amp = {0: 1.0}
    for t in range(tree.depth):
        child_weights = tree.levels[t + 1]
        last = t == tree.depth - 1
        next_amp: dict[int, float] = {}
        for prefix, amp in level_amp.items():
            node = tree.levels[t][prefix]
            for child in (2 * prefix, 2 * prefix + 1):
                weight = child_weights.get(child, 0.0)
                if weight <= 0.0 and not (last and child in tree.signs):
                    continue
                value = amp * np.sqrt(weight / node)
                if last:
                    value *= tree.sign(child)
                next_amp[child] = value
        level_amp = next_amp
    out = np.zeros(tree.size)
    for j, amp in level_amp.items():
        if j < tree.size:
            out[j] = amp
    if tree.depth == 0:
        out[0] = float(tree.sign(0)) * level_amp[0]
    return out


class WalkOperator:
    """The pair of reflections defining the walk for one stored matrix.

    States are (m, n) arrays over the joint index space. ``row_states`` holds
    the unit row vectors |A_i> (all-zero for empty rows) and ``a_tilde`` the
    unit vector of row norms, so P maps y to y_i |i>|A_i> and Q maps x to
    A~_i x_j. Empty rows are outside P's domain: applying P to amplitude on
    such a row is an error.
    """

    def __init__(self, row_states: np.ndarray, a_tilde: np.ndarray, fro: float):
        self.row_states = row_states
        self.a_tilde = a_tilde
        self.fro = float(fro)
        self.m, self.n = row_states.shape
        self._groups: list[PhaseGroup] | None = None

    @classmethod
    def from_store(cls, store: MatrixStore) -> "WalkOperator":
        if store.frobenius_sq() <= 0.0:
            raise EmptyRowError("empty-store sample: cannot build a walk from zero mass")
        rows = np.zeros((store.m, store.n))
        for i in range(store.m):
            if store.rows[i].root > 0.0:
                rows[i] = prepare_vector_state(store.rows[i])[: store.n]
        a_tilde = prepare_vector_state(store.norm_tree)[: store.m]
        return cls(rows, a_tilde, store.frobenius_norm())

    @classmethod
    def from_dense(cls, a) -> "WalkOperator":
        arr = np.asarray(a, dtype=np.float64)
        fro = float(np.linalg.norm(arr))
        if fro <= 0.0:
            raise EmptyRowError("empty-store sample: cannot build a walk from zero mass")
        norms = np.linalg.norm(arr, axis=1)
        rows = np.divide(arr, norms[:, None], out=np.zeros_like(arr), where=norms[:, None] > 0)
        return cls(rows, norms / fro, fro)

    # -- isometries and reflections (projector algebra) --------------------

    def apply_P(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        empty = np.linalg.norm(self.row_states, axis=1) == 0.0
        if np.any(np.abs(y[empty]) > AMP_TOL):
            raise MatrixError("amplitude on empty row: P is undefined there")
        return y[:, None] * self.row_states

    def apply_Pt(self, s: np.ndarray) -> np.ndarray:
        return np.sum(self.row_states * s, axis=1)

    def apply_Q(self, x: np.ndarray) -> np.ndarray:
        return np.outer(self.a_tilde, np.asarray(x))

    def apply_Qt(self, s: np.ndarray) -> np.ndarray:
        return self.a_tilde @ s

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

    # -- reflections via explicit basis completion --------------------------

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

    # -- dense forms --------------------------------------------------------

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

    def phase_groups(self) -> list["PhaseGroup"]:
        if self._groups is None:
            self._groups = _phase_groups(self.materialize_W())
        return self._groups


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


def eigenphases(f: SvdFactorization) -> np.ndarray:
    """theta_i = 2 arccos(sigma_i / ||A||_F) for every right basis vector.

    Indices beyond the rank have sigma zero, hence theta = pi: the walk
    negates |Q v_i> when A v_i = 0 because that state is orthogonal to every
    row state.
    """
    fro = f.frobenius_norm()
    if fro <= 0.0:
        raise MatrixError("phases are undefined for a zero matrix")
    ratios = np.zeros(f.shape[1])
    ratios[: f.rank] = f.sigma / fro
    return 2.0 * np.arccos(np.clip(ratios, 0.0, 1.0))


# -- estimation grid --------------------------------------------------------


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform grid of 2^bits phase bins over [0, 2 pi).

    ``bin_of``, ``theta_of`` and ``sigma_of`` take a scalar to a Python
    scalar and an array to an array, elementwise, with the same rounding.
    """

    bits: int

    @classmethod
    def for_theta_precision(cls, eps_theta: float) -> "PhaseGrid":
        """Enough bits to resolve phases to eps_theta, plus two guard bits
        (at most MAX_GRID_BITS)."""
        if not np.isfinite(eps_theta) or not 0.0 < eps_theta < 2.0 * np.pi:
            raise MatrixError(f"theta precision must be in (0, 2 pi), got {eps_theta}")
        return cls(min(int(np.ceil(np.log2(2.0 * np.pi / eps_theta))) + 2, MAX_GRID_BITS))

    @classmethod
    def for_sigma_precision(cls, eps: float) -> "PhaseGrid":
        """Grid for |sigma_est - sigma| <= eps ||A||_F (phase slack 2 eps)."""
        return cls.for_theta_precision(2.0 * eps)

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def width(self) -> float:
        return 2.0 * np.pi / self.size

    def bin_of(self, theta):
        """Nearest bin of a phase."""
        return _scalar(np.round(np.asarray(theta) / self.width).astype(np.int64) % self.size)

    def theta_of(self, b):
        """Folded phase magnitude in [0, pi] represented by bin b."""
        angle = (np.asarray(b) % self.size) * self.width
        return _scalar(np.where(angle > np.pi, np.abs(angle - 2.0 * np.pi), angle))

    def sigma_of(self, b, fro: float):
        return _scalar(np.cos(self.theta_of(b) / 2.0) * fro)


def _scalar(x):
    """A Python scalar for a 0-d result; arrays pass through."""
    return x.item() if np.ndim(x) == 0 else x


def boost_rounds(m: int, n: int) -> int:
    """Median-of-repeats count 2 ceil(log2(mn)) + 1."""
    return 2 * int(np.ceil(np.log2(m * n))) + 1


def qpe_bin_probabilities(theta: float, grid: PhaseGrid) -> np.ndarray:
    """Single-round outcome distribution for an eigenphase theta.

    |c_b|^2 = sin^2(N d_b / 2) / (N^2 sin^2(d_b / 2)) with d_b = theta - 2
    pi b / N; the mass within one bin of theta is at least 8 / pi^2.
    """
    n = grid.size
    d = theta - grid.width * np.arange(n)
    half = d / 2.0
    sin_half = np.sin(half)
    on_grid = np.abs(sin_half) < 1e-15
    num = np.sin(n * half) ** 2
    den = (n * sin_half) ** 2
    probs = np.where(on_grid, 1.0, num / np.where(on_grid, 1.0, den))
    return probs / probs.sum()


def sample_phase_bins(
    theta: float, grid: PhaseGrid, rounds: int, rng: np.random.Generator, probs=None
) -> np.ndarray:
    if probs is None:
        probs = qpe_bin_probabilities(theta, grid)
    return rng.choice(grid.size, size=rounds, p=probs)


def median_bin(bins: np.ndarray, grid: PhaseGrid) -> int:
    """Bin whose folded phase is the median of the realized folded phases."""
    order = np.argsort(grid.theta_of(bins), kind="stable")
    return int(bins[order[len(order) // 2]])


# -- circuit building blocks -------------------------------------------------


def _check_register(mn: int, grid: PhaseGrid) -> None:
    total = mn * grid.size
    if total > REGISTER_CAP:
        raise RegisterCapError(
            f"register of {total} amplitudes exceeds the cap {REGISTER_CAP}"
        )


def qpe_joint_state(wop: WalkOperator, s: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """One full phase-estimation round as a (2^bits, m, n) amplitude array.

    Hadamards put the phase register in uniform superposition, controlled
    walk powers build W^a s in branch a, and the inverse Fourier transform
    concentrates each eigencomponent near its phase bin.
    """
    _check_register(wop.m * wop.n, grid)
    n = grid.size
    stack = np.empty((n, wop.m, wop.n), dtype=np.complex128)
    current = np.asarray(s, dtype=np.complex128)
    for a in range(n):
        stack[a] = current
        if a + 1 < n:
            current = wop.apply_W(current)
    return np.fft.fft(stack, axis=0) / n


def phase_estimation(wop: WalkOperator, state: QuantumState, eps_theta: float) -> QuantumState:
    """Attach and populate an estimate register: |s> -> sum_b |b>|psi_b>."""
    grid = PhaseGrid.for_theta_precision(eps_theta)
    s = state.vec.reshape(wop.m, wop.n)
    joint = qpe_joint_state(wop, s, grid)
    return QuantumState(joint.reshape(-1), (grid.size, wop.m, wop.n))


def uncompute_residual_mass(wop: WalkOperator, s: np.ndarray, grid: PhaseGrid) -> float:
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


# -- rotation-plane decomposition --------------------------------------------


@dataclass
class PhaseGroup:
    """All rotation planes of W sharing one folded phase.

    ``basis`` is a real orthonormal basis of the invariant subspace, so
    projections of real states stay real. Conjugate eigenvector pairs are
    folded into one group: their estimate registers evolve identically, and
    treating them separately would split physically inseparable components.
    """

    theta: float
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def overlap_sq(self, s_flat: np.ndarray) -> float:
        return float(np.linalg.norm(self.basis.T @ s_flat) ** 2)

    def project(self, s_flat: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ s_flat)


def _phase_groups(w: np.ndarray) -> list[PhaseGroup]:
    """Split a real orthogonal matrix into folded-phase invariant subspaces.

    W commutes with its symmetrization (W + W^T) / 2, whose eigenvalues are
    cos(theta) and whose eigenspaces are exactly the folded rotation planes.
    eigh yields an orthonormal real basis even for the high-multiplicity
    fixed and negated spaces, where a plain eigendecomposition of W can
    return a numerically dependent set.
    """
    sym_vals, sym_vecs = np.linalg.eigh((w + w.T) / 2.0)
    thetas = np.arccos(np.clip(sym_vals, -1.0, 1.0))
    order = np.argsort(thetas, kind="stable")
    groups: list[PhaseGroup] = []
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and thetas[order[stop]] - thetas[order[start]] < PHASE_TOL:
            stop += 1
        idx = order[start:stop]
        theta = float(np.mean(thetas[idx]))
        groups.append(PhaseGroup(theta=theta, basis=sym_vecs[:, idx]))
        start = stop
    total = sum(g.dim for g in groups)
    if total != w.shape[0]:
        raise MatrixError(f"phase groups span {total} of {w.shape[0]} dimensions")
    return groups


# -- singular value estimation ------------------------------------------------


@dataclass(frozen=True)
class SveComponent:
    """One estimated component of the input state.

    ``index`` is the right-singular index on the exact path and the phase
    group id on the circuit path. ``amplitude`` is the input overlap,
    ``sigma``/``theta`` the true values, and ``sigma_est`` the value read
    off the realized grid bin.
    """

    index: int
    amplitude: float
    sigma: float
    theta: float
    bin: int
    theta_est: float
    sigma_est: float


@dataclass(frozen=True)
class SveOutput:
    components: tuple[SveComponent, ...]
    grid: PhaseGrid
    fro: float
    path: str

    def max_error(self, min_amplitude: float = 1e-9) -> float:
        """Largest |sigma_est - sigma| over components carrying amplitude."""
        errs = [abs(c.sigma_est - c.sigma) for c in self.components if c.amplitude > min_amplitude]
        return max(errs, default=0.0)


def sve_exact(f: SvdFactorization, x, eps: float) -> SveOutput:
    """Deterministic estimation: every true phase rounds to its nearest bin.

    Guarantees |sigma_est - sigma_i| <= eps ||A||_F for every component
    (the grid keeps phase error below a quarter bin of slack).
    """
    grid = PhaseGrid.for_sigma_precision(eps)
    fro = f.frobenius_norm()
    alpha = f.v.T @ unit_vector(x, f.shape[1])
    thetas = eigenphases(f)
    bins = grid.bin_of(thetas)
    theta_est = grid.theta_of(bins)
    sigma_est = grid.sigma_of(bins, fro)
    comps = tuple(
        SveComponent(
            index=i,
            amplitude=float(abs(alpha[i])),
            sigma=f.singular_value(i),
            theta=float(thetas[i]),
            bin=int(bins[i]),
            theta_est=float(theta_est[i]),
            sigma_est=float(sigma_est[i]),
        )
        for i in range(f.shape[1])
    )
    return SveOutput(components=comps, grid=grid, fro=fro, path="exact")


class CircuitSve:
    """Circuit estimation of one input, split into per-input work and rounds.

    Construction does the per-input work once: the register check, |Q x>,
    the weight and true singular value of every phase group, and the
    single-round outcome distribution of each group that carries weight.
    ``round`` is one boosted estimation: boost_rounds(m, n) draws per
    carrying group, in group order, each read off at its median bin.
    """

    def __init__(self, wop: WalkOperator, x, grid: PhaseGrid):
        _check_register(wop.m * wop.n, grid)
        self.wop, self.grid = wop, grid
        self.state = wop.apply_Q(unit_vector(x, wop.n)).reshape(-1)
        self.groups = wop.phase_groups()
        self.weights = np.array([g.overlap_sq(self.state) for g in self.groups])
        self.sigmas = np.array([np.cos(g.theta / 2.0) * wop.fro for g in self.groups])
        self.kernels = {
            gid: qpe_bin_probabilities(g.theta, grid)
            for gid, g in enumerate(self.groups)
            if self.weights[gid] >= COMPONENT_TOL**2
        }

    def round(self, rng: np.random.Generator) -> list[SveComponent]:
        rounds = boost_rounds(self.wop.m, self.wop.n)
        comps = []
        for gid, probs in self.kernels.items():
            theta = self.groups[gid].theta
            b = median_bin(sample_phase_bins(theta, self.grid, rounds, rng, probs), self.grid)
            theta_est = self.grid.theta_of(b)
            comps.append(
                SveComponent(
                    index=gid,
                    amplitude=float(np.sqrt(self.weights[gid])),
                    sigma=float(self.sigmas[gid]),
                    theta=theta,
                    bin=b,
                    theta_est=theta_est,
                    sigma_est=float(np.cos(theta_est / 2.0) * self.wop.fro),
                )
            )
        return comps


def sve_circuit(wop: WalkOperator, x, eps: float, rng: np.random.Generator) -> SveOutput:
    """Sampled estimation through the walk's rotation planes.

    Prepares |Q x>, splits it across the folded phase groups of W, and for
    each group draws 2 ceil(log2 mn) + 1 single-round phase-register
    outcomes, keeping the median. Estimates are reported per group; group
    amplitudes follow the projection of the input.
    """
    est = CircuitSve(wop, x, PhaseGrid.for_sigma_precision(eps))
    return SveOutput(components=tuple(est.round(rng)), grid=est.grid, fro=wop.fro, path="circuit")


def factorization_of(source) -> SvdFactorization:
    """Exact-path SVD of a MatrixStore, WalkOperator or dense matrix; an
    SvdFactorization is returned as is."""
    if isinstance(source, SvdFactorization):
        return source
    if isinstance(source, MatrixStore):
        return svd(source.to_dense())
    if isinstance(source, WalkOperator):
        return svd(source.row_states * (source.a_tilde * source.fro)[:, None])
    return svd(source)


def walk_of(source) -> WalkOperator:
    """Circuit-path walk of a MatrixStore or dense matrix; a WalkOperator is
    returned as is."""
    if isinstance(source, WalkOperator):
        return source
    if isinstance(source, MatrixStore):
        return WalkOperator.from_store(source)
    return WalkOperator.from_dense(source)


def sve(
    source,
    x,
    eps: float,
    path: str = "exact",
    rng: np.random.Generator | None = None,
) -> SveOutput:
    """Estimate singular values carried by the components of x.

    ``source`` may be a MatrixStore, a dense matrix, an SvdFactorization
    (exact path), or a WalkOperator (circuit path). The exact path is the
    deterministic oracle; the circuit path needs an rng.
    """
    if path == "exact":
        return sve_exact(factorization_of(source), x, eps)
    if path == "circuit":
        if rng is None:
            raise MatrixError("circuit path requires an rng")
        return sve_circuit(walk_of(source), x, eps, rng)
    raise MatrixError(f"unknown execution path {path!r}")

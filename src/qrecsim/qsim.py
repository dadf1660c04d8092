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

# Overlaps below this are treated as absent when reporting components.
COMPONENT_TOL = 1e-12
# Eigenphases of W closer than this fall into one phase group.
PHASE_TOL = 1e-8


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
    unit vector of row norms. Q maps x to A~_i x_j (``apply_Q``, with adjoint
    ``apply_Qt``); ``matrices`` gives P and Q densely, ``materialize_W`` the
    walk (2 P P^T - I)(2 Q Q^T - I), and ``phase_groups`` its rotation planes.
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

    def phase_groups(self) -> list["PhaseGroup"]:
        if self._groups is None:
            self._groups = _phase_groups(self.materialize_W())
        return self._groups


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


def median_bin(bins: np.ndarray, grid: PhaseGrid) -> tuple[int, float]:
    """Bin whose folded phase is the median of the realized folded phases,
    with that phase."""
    thetas = grid.theta_of(bins)
    k = np.argsort(thetas, kind="stable")[len(thetas) // 2]
    return int(bins[k]), float(thetas[k])


def _check_register(mn: int, grid: PhaseGrid) -> None:
    total = mn * grid.size
    if total > REGISTER_CAP:
        raise RegisterCapError(
            f"register of {total} amplitudes exceeds the cap {REGISTER_CAP}"
        )


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
            b, theta_est = median_bin(
                sample_phase_bins(theta, self.grid, rounds, rng, probs), self.grid
            )
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

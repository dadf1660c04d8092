"""State-vector simulation of singular value estimation.

Two reflections U (about the span of the row states |i>|A_i>, the columns of
P) and V (about the span of the |A~>|j> states, the columns of Q) compose
into a walk W = U V on the joint row/column index space of an m x n matrix.
Its rotation planes encode the singular values: the plane containing
|Q v_i> rotates by theta_i with cos(theta_i / 2) = sigma_i / ||A||_F, vectors
orthogonal to the column space sit at theta = pi, and the orthogonal
complement of both spans is fixed (theta = 0). Estimating eigenphases of W
on |Q x> therefore estimates singular values in units of ||A||_F.

Two execution paths expose the same interface. The exact path diagonalizes
the matrix classically and rounds each true phase to the estimation grid; it
is deterministic and serves as the oracle. The circuit path reads W's
rotation planes off the SVD of A / ||A||_F built from the tree-prepared row
states: plane i is span{P u_i, Q v_i}, so |Q x> = sum_i (v_i . x) |Q v_i>
puts weight (v_i . x)^2 on it, and no vector of length mn is formed. It
splits the input across the folded phase groups there and samples
phase-register outcomes from the exact single-round kernel with median
boosting, reproducing the statistics of the quantum procedure without
2^t-fold register blowup per boosting round (the rounds are iid per group
because the joint state is block diagonal across groups). The SVD and the
kernel tables, all that the simulator allocates, are capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyRowError, MatrixError, RegisterCapError
from .linalg import SvdFactorization, as_matrix, check_count, check_real, svd, unit_vector
from .rng import choice_cdf
from .store import MatrixStore

# Hard ceiling on the float64 entries one circuit-path allocation may hold: the
# phase groups' SVD (V, the reduced U and LAPACK's copy of A~, n^2 + 2 mn) and
# a grid's kernel table (groups x 2^t).
REGISTER_CAP = 1 << 22
# Temporary entries per block of kernel-table rows: a table is built a few
# rows at a time, one row at a time once a row alone is this large.
KERNEL_BLOCK = 1 << 14

# Finest estimation grid. Bin indices are int64, and a bin of 2 pi / 2^62 is
# already far below the float64 resolution of the phases it rounds, so a
# finer requested precision gets this grid.
MAX_GRID_BITS = 62

# Overlaps below this are treated as absent when reporting components.
COMPONENT_TOL = 1e-12
# Eigenphases of W whose cosines differ by less than this fall into one
# phase group. The SVD resolves cos(theta) to about 1e-15 absolute at the
# sizes the cap admits; arccos turns that into ~1e-15 in theta mid-range
# but ~1e-8 near 0 and pi, so grouping compares cosines, not phases.
COS_TOL = 1e-12


def _check_allocation(what: str, entries: int) -> None:
    if entries > REGISTER_CAP:
        raise RegisterCapError(f"{what} of {entries} entries exceeds the cap {REGISTER_CAP}")


class WalkOperator:
    """The walk W = (2 P P^T - I)(2 Q Q^T - I) for one stored matrix.

    P maps y to sum_i y_i |i>|A_i> and Q maps x to |A~> x, where
    ``row_states`` holds the unit rows |A_i> (all-zero for empty rows) and
    ``a_tilde`` the unit vector of row norms, so P^T Q = A / ||A||_F. For a
    singular triple (sigma_i, u_i, v_i) of A~, W rotates the plane
    span{P u_i, Q v_i} by theta_i with cos(theta_i / 2) = sigma_i (Jordan's
    lemma for two reflections), negates Q v_i when sigma_i = 0, and fixes
    everything orthogonal to span[P Q]. ``phase_groups`` gives the planes
    |Q x> reaches by their right singular vectors v_i.
    """

    def __init__(self, row_states: np.ndarray, a_tilde: np.ndarray, fro: float):
        self.row_states = row_states
        self.a_tilde = a_tilde
        self.fro = float(fro)
        self.m, self.n = row_states.shape
        self._groups: PhaseTable | None = None
        self._tables: tuple[PhaseGrid, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_store(cls, store: MatrixStore) -> "WalkOperator":
        if store.frobenius_sq() <= 0.0:
            raise EmptyRowError("empty-store sample: cannot build a walk from zero mass")
        a_tilde = store.norm_tree.states()[0]
        return cls(store.rows.states(), a_tilde, store.frobenius_norm())

    @classmethod
    def from_dense(cls, a) -> "WalkOperator":
        arr = as_matrix(a)
        fro = float(np.linalg.norm(arr))
        if fro <= 0.0:
            raise EmptyRowError("empty-store sample: cannot build a walk from zero mass")
        norms = np.linalg.norm(arr, axis=1)
        rows = np.divide(arr, norms[:, None], out=np.zeros_like(arr), where=norms[:, None] > 0)
        return cls(rows, norms / fro, fro)

    def phase_groups(self) -> "PhaseTable":
        """W's rotation planes reached from span Q, grouped by folded phase.

        V from the SVD of A~ comes in descending sigma, that is ascending
        theta, with the kernel last at exactly pi, so each group is a run of
        consecutive columns whose cos(theta) agree within COS_TOL, and its
        phase is the mean over the run. The groups hold all n columns.
        Raises RegisterCapError, before any allocation, when the SVD's
        n^2 + 2 mn entries exceed REGISTER_CAP.
        """
        if self._groups is None:
            _check_allocation("span decomposition", self.n * self.n + 2 * self.m * self.n)
            f = svd(self.row_states * self.a_tilde[:, None])
            thetas = eigenphases(f)
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
            theta = np.array(phases)
            self._groups = PhaseTable(
                v=f.v,
                start=np.array(starts),
                theta=theta,
                sigma=np.cos(theta / 2.0) * self.fro,
                column_group=column_group,
            )
        return self._groups

    def grid_tables(self, grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
        """(kernel table, bin phases) on a grid, built once per grid run.

        Row g of the kernel table is group g's cumulative single-round
        outcome distribution (``choice_cdf`` of its kernel), built
        KERNEL_BLOCK entries at a time into the one preallocated table;
        entry b of the bin phases is ``grid.theta_of(b)``. Only the latest
        grid's tables are held. Raises RegisterCapError first when groups x
        2^t exceeds REGISTER_CAP.
        """
        if self._tables is None or self._tables[0] != grid:
            self._tables = None  # free the last grid's tables before allocating
            thetas = self.phase_groups().theta
            _check_allocation("register", len(thetas) * grid.size)
            table = np.empty((len(thetas), grid.size))
            rows = max(1, KERNEL_BLOCK // grid.size)
            for lo in range(0, len(thetas), rows):
                block = thetas[lo : lo + rows]
                table[lo : lo + len(block)] = choice_cdf(qpe_bin_probabilities(block, grid))
            self._tables = (grid, table, grid.theta_of(np.arange(grid.size)))
        return self._tables[1:]


def eigenphases(f: SvdFactorization) -> np.ndarray:
    """theta_i = 2 arccos(sigma_i / ||A||_F) for every right basis vector
    (every column of V, or n of them when V is not stored).

    Indices beyond the rank have sigma zero, hence theta = pi: the walk
    negates |Q v_i> when A v_i = 0 because that state is orthogonal to every
    row state.
    """
    fro = f.frobenius_norm()
    if fro <= 0.0:
        raise MatrixError("phases are undefined for a zero matrix")
    return 2.0 * np.arccos(np.clip(f.column_sigma() / fro, 0.0, 1.0))


# -- estimation grid --------------------------------------------------------


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform grid of 2^bits phase bins over [0, 2 pi), bits an integer
    in [1, MAX_GRID_BITS].

    ``bin_of``, ``theta_of`` and ``sigma_of`` take a scalar to a Python
    scalar and an array to an array, elementwise, with the same rounding.
    """

    bits: int

    def __post_init__(self):
        check_count(1, MAX_GRID_BITS, bits=self.bits)

    @classmethod
    def for_sigma_precision(cls, eps: float) -> "PhaseGrid":
        """Grid for |sigma_est - sigma| <= eps ||A||_F, eps in (0, 1): enough
        bits to resolve phases to 2 eps, plus two guard bits (at most
        MAX_GRID_BITS)."""
        check_real("fraction", eps=eps)
        return cls(int(min(np.ceil(np.log2(2.0 * np.pi / (2.0 * eps))) + 2, MAX_GRID_BITS)))

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


def qpe_bin_probabilities(theta, grid: PhaseGrid) -> np.ndarray:
    """Single-round outcome distribution for an eigenphase theta; for an
    array of phases, one distribution per phase along a new last axis.

    |c_b|^2 = sin^2(N d_b / 2) / (N^2 sin^2(d_b / 2)) with d_b = theta - 2
    pi b / N; the mass within one bin of theta is at least 8 / pi^2.
    """
    n = grid.size
    d = np.asarray(theta)[..., None] - grid.width * np.arange(n)
    half = d / 2.0
    sin_half = np.sin(half)
    on_grid = np.abs(sin_half) < 1e-15
    num = np.sin(n * half) ** 2
    den = (n * sin_half) ** 2
    probs = np.where(on_grid, 1.0, num / np.where(on_grid, 1.0, den))
    return probs / probs.sum(axis=-1, keepdims=True)


def median_bin(bins: np.ndarray, thetas: np.ndarray):
    """Bin whose folded phase (``thetas``, the bins' ``theta_of``) is the
    stable median of the realized ones, with that phase; for 2-D arrays,
    one (bin, phase) per row, as arrays."""
    k = np.argsort(thetas, axis=-1, kind="stable")[..., bins.shape[-1] // 2]
    at = (np.arange(len(bins)), k) if bins.ndim == 2 else k
    return _scalar(bins[at]), _scalar(thetas[at])


# -- rotation-plane decomposition --------------------------------------------


@dataclass(frozen=True)
class PhaseTable:
    """W's rotation planes reached from span Q, grouped by folded phase.

    Group g has phase ``theta[g]`` and singular value ``sigma[g]`` =
    cos(theta_g / 2) ||A||_F, and holds the planes' right singular vectors
    v_g = v[:, start[g]:start[g + 1]] (the last group runs to column n), so
    the part of |Q x> in it is Q v_g v_g^T x; ``column_group`` gives each
    column's group. Conjugate eigenvector pairs fold into one group: their
    estimate registers evolve identically, and treating them separately
    would split physically inseparable components.
    """

    v: np.ndarray
    start: np.ndarray
    theta: np.ndarray
    sigma: np.ndarray
    column_group: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)


# -- singular value estimation ------------------------------------------------


class SveComponent(NamedTuple):
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


def component_rows(kind, *cols) -> tuple:
    """One ``kind`` per index of the equal-length column arrays, built from
    their entries as Python scalars."""
    return tuple(kind(*row) for row in zip(*(c.tolist() for c in cols)))


@dataclass(frozen=True)
class SveOutput:
    components: tuple[SveComponent, ...]
    grid: PhaseGrid


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
    cols = (np.arange(thetas.size), np.abs(alpha), f.column_sigma(), thetas, bins,
            grid.theta_of(bins), grid.sigma_of(bins, fro))
    comps = component_rows(SveComponent, *cols)
    return SveOutput(components=comps, grid=grid)


class CircuitSve:
    """Circuit estimation of one input, split into per-input work and rounds.

    Construction does the per-input work once: the coordinates V^T x of
    |Q x> in the walk's planes, the group weights, and the groups that carry
    weight; the true singular values are the phase table's.
    ``round`` is one boosted estimation: boost_rounds(m, n) draws per
    carrying group, in group order, each read off at its median bin. The
    draws come from one ``rng.random`` call and inverse-CDF lookups in the
    walk's kernel table, the same bits as one ``rng.choice(p=kernel)`` per
    group in turn.
    """

    def __init__(self, wop: WalkOperator, x, grid: PhaseGrid):
        self.wop, self.grid = wop, grid
        self.groups = wop.phase_groups()
        self.coords = self.groups.v.T @ unit_vector(x, wop.n)
        self.weights = np.add.reduceat(self.coords**2, self.groups.start)
        self.carrying = np.flatnonzero(self.weights >= COMPONENT_TOL**2)
        self.kernels, self.bin_theta = wop.grid_tables(grid)
        self.rounds = boost_rounds(wop.m, wop.n)

    def round(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bin, theta_est, sigma_est) arrays, one entry per carrying group."""
        draws = rng.random((len(self.carrying), self.rounds))
        rows = zip(self.carrying, draws)
        bins = np.array([self.kernels[g].searchsorted(u, side="right") for g, u in rows])
        picked, theta_est = median_bin(bins, self.bin_theta[bins])
        return picked, theta_est, np.cos(theta_est / 2.0) * self.wop.fro

    def survivor(self, gids) -> np.ndarray:
        """Q^T of the input's projection onto the given groups: V_S V_S^T x
        over their columns S."""
        keep = np.zeros(len(self.groups), dtype=bool)
        keep[gids] = True
        cols = keep[self.groups.column_group]
        return self.groups.v[:, cols] @ self.coords[cols]


def sve_circuit(wop: WalkOperator, x, eps: float, rng: np.random.Generator) -> SveOutput:
    """Sampled estimation through the walk's rotation planes.

    Prepares |Q x>, splits it across the folded phase groups of W, and for
    each group draws 2 ceil(log2 mn) + 1 single-round phase-register
    outcomes, keeping the median. Estimates are reported per group; group
    amplitudes follow the projection of the input.
    """
    est = CircuitSve(wop, x, PhaseGrid.for_sigma_precision(eps))
    g = est.carrying
    cols = (g, np.sqrt(est.weights[g]), est.groups.sigma[g], est.groups.theta[g], *est.round(rng))
    comps = component_rows(SveComponent, *cols)
    return SveOutput(components=comps, grid=est.grid)


def factorization_of(source) -> SvdFactorization:
    """Exact-path SVD of a MatrixStore or dense matrix; an SvdFactorization
    is returned as is."""
    if isinstance(source, SvdFactorization):
        return source
    if isinstance(source, MatrixStore):
        return svd(source.to_dense())
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

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
splits the input across the folded phase groups there and draws each group's
boosted estimate, the median of iid single-round phase-register outcomes
(iid per group because the joint state is block diagonal across groups),
from that median's exact law (``WalkOperator.median_table``), reproducing
the statistics of the quantum procedure without 2^t-fold register blowup
per boosting round. That law is built from the single-round kernel on the
folded bins (``folded_kernel``), in closed form from per-grid and per-group
half-angle sines and cosines, with no sine per bin. A projection reads only
whether each group's median reaches the cut, so it draws that flag from its
exact probability instead, which the table holds when it is built for that
cut. The SVD and the table, all that the simulator allocates, are capped.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyRowError, MatrixError, RegisterCapError
from .linalg import SvdFactorization, as_matrix, check_count, check_real, svd, unit_vector
from .store import MatrixStore

# Hard ceiling on the float64 entries one circuit-path allocation may hold: the
# phase groups' SVD (V, the reduced U and LAPACK's copy of A~, n^2 + 2 mn) and
# a grid's median table (groups x (2^(t-1) + 1) folded bins).
REGISTER_CAP = 1 << 22
# Entries per block of kernel rows, each row of folded width 2^(t-1) + 1: the
# median table is built a few rows at a time, one row at a time once a row
# alone is this large, so each temporary holds about this many entries.
KERNEL_BLOCK = 1 << 14

# Finest estimation grid. Bin indices are int64, and a bin of 2 pi / 2^62 is
# already far below the float64 resolution of the phases it rounds, so a
# finer requested precision gets this grid.
MAX_GRID_BITS = 62
# Precisions whose grids ``PhaseGrid.for_sigma_precision`` remembers, least
# recently used first out; a caller cycles through a handful.
GRID_MEMO = 64

# Overlaps below this are treated as absent when reporting components.
COMPONENT_TOL = 1e-12
# An eigenphase of W joins its phase group while its cosine is within this of
# the group's first (``_group_phases``). The SVD resolves cos(theta) to about
# 1e-15 absolute at the sizes the cap admits; arccos turns that into ~1e-15
# in theta mid-range but ~1e-8 near 0 and pi, so grouping compares cosines,
# not phases.
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
        self._median: MedianTable | None = None

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
        consecutive columns whose cos(theta) lie within COS_TOL of the run's
        first (``_group_phases``), and its phase is the mean over the run.
        The groups hold all n columns.
        Raises RegisterCapError, before any allocation, when the SVD's
        n^2 + 2 mn entries exceed REGISTER_CAP.
        """
        if self._groups is None:
            _check_allocation("span decomposition", self.n * self.n + 2 * self.m * self.n)
            f = svd(self.row_states * self.a_tilde[:, None])
            starts, theta, column_group = _group_phases(eigenphases(f))
            self._groups = PhaseTable(
                v=f.v,
                start=starts,
                theta=theta,
                sigma=np.cos(theta / 2.0) * self.fro,
                column_group=column_group,
            )
        return self._groups

    def median_table(self, grid: PhaseGrid, params=None) -> MedianTable:
        """The law of each group's median of boost_rounds(m, n) draws on a
        grid, cut by ``params`` (a ProjectionParams) when given.

        Folded bin f in [0, N/2] holds bins f and N - f, at phase f * width,
        and ``sigma`` holds its ``grid.sigma_of``. With F_g(f) group g's
        single-draw kernel mass on folded bins up to f, and S_g(f) = 1 -
        F_g(f) its mass above f, the median of r draws lands at or below f
        with probability F_med(f) = P(Binomial(r, F_g(f)) >= (r + 1) / 2).
        Row g of ``keys`` (raveled) is F_med + g, so one searchsorted inverts
        every group's F_med; the offset costs at most log2(groups) bits of
        resolution, about 2e-13 at 1,024 groups. ``kept_bins`` counts the
        folded bins whose sigma passes the ``keeps`` flag rule of ``params``
        (0 without them), a prefix since the estimate falls as the phase
        rises, and ``q[g]`` is F_med at the last kept bin, read before the
        offset is added: the chance that g's median estimate is kept.

        Built from ``folded_kernel`` KERNEL_BLOCK entries at a time, straight
        into ``keys``; ``sigma`` is the folded half-angle cosines times
        ||A||_F, which is ``grid.sigma_of`` bit for bit.
        The walk holds one table: a request on its grid reuses it unless it
        names another cut, and any other request frees it before allocating.
        Raises RegisterCapError first when groups x (N/2 + 1) exceeds
        REGISTER_CAP.
        """
        cut = None if params is None else params.cut
        held = self._median
        if held is not None and held.grid == grid and (cut is None or cut == held.cut):
            return held
        self._median = None  # free the held table before allocating
        thetas = self.phase_groups().theta
        folded = grid.size // 2 + 1
        _check_allocation("register", len(thetas) * folded)
        half = folded_half_angles(grid)
        sigma = half[0] * self.fro
        kept_bins = 0 if params is None else int(np.count_nonzero(params.keeps(sigma)))
        keys = np.empty(len(thetas) * folded)
        cdf = keys.reshape(len(thetas), folded)
        rounds = boost_rounds(self.m, self.n)
        rows = max(1, KERNEL_BLOCK // folded)
        for lo in range(0, len(thetas), rows):
            mass = folded_kernel(thetas[lo : lo + rows], grid, half)
            cdf[lo : lo + len(mass)] = _median_cdf(mass, rounds)
        q = cdf[:, kept_bins - 1].copy() if kept_bins else np.zeros(len(thetas))
        cdf += np.arange(len(thetas))[:, None]
        self._median = MedianTable(grid, cut, sigma, keys, kept_bins, q)
        return self._median


class MedianTable(NamedTuple):
    """A walk's median table on one grid, cut at ``cut`` (None when uncut;
    ``WalkOperator.median_table``)."""

    grid: PhaseGrid
    cut: float | None
    sigma: np.ndarray
    keys: np.ndarray
    kept_bins: int
    q: np.ndarray


def _group_phases(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first column, phase, each column's group) of the phase groups.

    One greedy scan along the columns: a column starts a new group when the
    current group's first cosine exceeds its own by COS_TOL or more, and
    otherwise joins that group. A group's phase is the mean over its columns.
    """
    cosines = np.cos(thetas).tolist()
    starts = [0]
    for col, c in enumerate(cosines):
        if cosines[starts[-1]] - c >= COS_TOL:
            starts.append(col)
    starts = np.array(starts)
    sizes = np.diff(np.append(starts, len(thetas)))
    theta = thetas[starts]
    for k in np.flatnonzero(sizes > 1):
        theta[k] = np.mean(thetas[starts[k] : starts[k] + sizes[k]])
    return starts, theta, np.repeat(np.arange(len(starts)), sizes)


def _median_cdf(mass: np.ndarray, rounds: int) -> np.ndarray:
    """F_med over the folded bins for each row of single-draw folded bin
    masses, each row normalized here (``folded_kernel``'s rows need not be).

    P(Binomial(r, F) >= h) = F^h sum_j C(r, h + j) F^j S^(d - j), d = r - h,
    by Horner's rule in F with S^(d - j) carried along: every term is
    positive, and S is a reverse cumulative sum rather than 1 - F, so small
    tails keep their relative precision. Near 1, where F and S round apart
    by an ulp or two, a running maximum keeps each row non-decreasing.
    """
    below = np.cumsum(mass, axis=1)
    above = np.zeros_like(below)
    np.cumsum(mass[:, :0:-1], axis=1, out=above[:, -2::-1])
    total = below[:, -1:].copy()
    below /= total
    above /= total
    need = (rounds + 1) // 2
    acc = np.ones_like(below)
    power = np.ones_like(below)
    for j in range(rounds - need - 1, -1, -1):
        power *= above
        acc *= below
        acc += math.comb(rounds, need + j) * power
    acc *= below**need
    np.minimum(acc, 1.0, out=acc)
    return np.maximum.accumulate(acc, axis=1, out=acc)


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
        MAX_GRID_BITS). The last GRID_MEMO precisions are remembered, so a
        caller that repeats eps does not pay for the grid again."""
        check_real("fraction", eps=eps)
        return _precision_grid(eps)

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
        """Folded phase magnitude in [0, pi] represented by bin b: bins b and
        N - b fold onto min(b, N - b) mod N, at that many bin widths."""
        b = np.asarray(b) % self.size
        return _scalar(np.minimum(b, self.size - b) * self.width)

    def sigma_of(self, b, fro: float):
        return _scalar(np.cos(self.theta_of(b) / 2.0) * fro)


@functools.lru_cache(maxsize=GRID_MEMO, typed=True)
def _precision_grid(eps: float) -> PhaseGrid:
    # A Python float overflows to inf without a warning when eps is tiny.
    bits = np.ceil(np.log2(2.0 * np.pi / (2.0 * float(eps)))) + 2
    return PhaseGrid(int(min(bits, MAX_GRID_BITS)))


def _scalar(x):
    """A Python scalar for a 0-d result; arrays pass through."""
    return x.item() if np.ndim(x) == 0 else x


def boost_rounds(m: int, n: int) -> int:
    """Median-of-repeats count 2 ceil(log2(mn)) + 1."""
    return 2 * int(np.ceil(np.log2(m * n))) + 1


def folded_half_angles(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of half of each folded bin's phase, bins 0 .. N/2."""
    half = grid.theta_of(np.arange(grid.size // 2 + 1)) / 2.0
    return np.cos(half), np.sin(half)


def folded_kernel(theta: np.ndarray, grid: PhaseGrid, half: tuple[np.ndarray, np.ndarray]
                  ) -> np.ndarray:
    """Single-round phase-estimation weights on the folded bins, one row per
    phase in [0, pi], each row proportional to that phase's bin masses.

    Bin b, at offset d_b = theta - b w from the phase, has mass sin^2(N
    theta / 2) / (N sin(d_b / 2))^2 (Nielsen & Chuang, section 5.2.1). The
    numerator is the same for every bin, so a row needs csc^2(d_b / 2)
    alone: folded bin f, which holds bins f and N - f, weighs csc^2((theta
    - f w) / 2) + csc^2((theta + f w) / 2), and the ends f = 0 and N/2, one
    bin each, the first term alone. With a, b the sine and cosine of theta
    / 2 and c, s those of f w / 2 (``half``, from ``folded_half_angles``),
    the two sines are ac -+ bs: two outer products, then a square and a
    reciprocal, and no sine per entry. A phase within |sin(d_b / 2)| <
    1e-15 of a bin (only the nearest can be, on any grid the register cap
    admits) puts all of its weight there.

    Error model: ac - bs carries up to about 1e-16 absolute error, so a
    phase at distance d from its nearest bin has up to about 2e-16 / (d / 2)
    relative error on that bin's mass and, since that mass leads the row's
    sum, on every normalized folded mass. Mid-bin (d = w / 2) that is about
    1e-11 at 14 bits; nearer a bin it grows as 1 / d.
    """
    cos_half, sin_half = half
    a, b = np.sin(theta / 2.0), np.cos(theta / 2.0)
    ac = np.multiply.outer(a, cos_half)
    bs = np.multiply.outer(b, sin_half)
    near = ac - bs
    far = np.add(ac[:, 1:-1], bs[:, 1:-1], out=ac[:, 1:-1])
    bins = grid.bin_of(theta)
    on = np.flatnonzero(np.abs(near[np.arange(len(theta)), bins]) < 1e-15)
    near[on] = 1.0
    near *= near
    np.reciprocal(near, out=near)
    far *= far
    near[:, 1:-1] += np.reciprocal(far, out=far)
    near[on] = 0.0
    near[on, bins[on]] = 1.0
    return near


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
    """One ``kind`` (a named tuple type) per index of the equal-length column
    arrays, one column per field, built from their entries as Python
    scalars. Raises TypeError when the column count is not the field count."""
    if len(cols) != len(kind._fields):
        raise TypeError(f"{kind.__name__} has {len(kind._fields)} fields, got {len(cols)} columns")
    return tuple(map(tuple.__new__, itertools.repeat(kind), zip(*(c.tolist() for c in cols))))


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
    """Circuit estimation of one input on one grid.

    Construction does the per-input work once: the coordinates V^T x of
    |Q x> in the walk's planes, the group weights, and the groups that carry
    weight; the true singular values are the phase table's. It then takes
    the walk's median table on the grid, cut by ``params`` for a projection.
    ``round`` is one boosted estimation, each carrying group's median drawn
    from its law in the table. A projection reads only whether each median
    passes the flag rule; it draws the flags from the table's ``q``, and
    ``estimates_at`` reads each median off the uniform that set its flag.
    """

    def __init__(self, wop: WalkOperator, x, grid: PhaseGrid, params=None):
        self.grid = grid
        self.groups = wop.phase_groups()
        self.coords = self.groups.v.T @ unit_vector(x, wop.n)
        self.weights = np.add.reduceat(self.coords**2, self.groups.start)
        self.carrying = np.flatnonzero(self.weights >= COMPONENT_TOL**2)
        self.table = wop.median_table(grid, params)

    def _median_bins(self, u: np.ndarray) -> np.ndarray:
        """Each carrying group's first folded bin whose F_med exceeds u, or
        its last bin when the offset rounds g + u past every key."""
        g, folded = self.carrying, len(self.table.sigma)
        f = self.table.keys.searchsorted(g + u, side="right") - g * folded
        return np.minimum(f, folded - 1)

    def round(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bin, theta_est, sigma_est) arrays, one entry per carrying group.

        Two uniforms per group, in group order: the first inverts F_med to
        the median's folded bin f, and the second picks bin N - f over f
        with chance m(N - f) / (m(f) + m(N - f)) from their single-round
        kernel masses. A draw's side is independent of its folded bin, and
        the stable median picks a draw by folded phases and draw order alone,
        so the median keeps that chance. The kernel mass of the bin at
        offset d from the phase is sin^2(N d / 2) / (N sin(d / 2))^2, whose
        numerator is the same for every bin, so the chance is s^2 / (s^2 +
        s'^2) with s = sin((theta - f w) / 2) and s' = sin((theta + f w) / 2).
        """
        sigma = self.table.sigma
        u = rng.random((len(self.carrying), 2))
        f = self._median_bins(u[:, 0])
        theta, angle = self.groups.theta[self.carrying], f * self.grid.width
        near = np.sin((theta - angle) / 2.0) ** 2
        far = u[:, 1] * (near + np.sin((theta + angle) / 2.0) ** 2) < near
        bins = np.where(far, self.grid.size - f, f) % self.grid.size
        return bins, angle, sigma[f]

    def estimates_at(self, u: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """sigma_est per carrying group, read off the uniforms ``u`` that set
        its flags ``kept`` (u < q): u inverts F_med, and the folded bin is
        clamped to its flag's side of the cut. Given its flag, an accepted u
        is uniform on [0, q) or [q, 1), so this is the median's law given
        the flag."""
        f, k = self._median_bins(u), self.table.kept_bins
        return self.table.sigma[np.where(kept, np.minimum(f, k - 1), np.maximum(f, k))]

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
    each group draws the median of 2 ceil(log2 mn) + 1 single-round
    phase-register outcomes from its exact law. Estimates are reported per
    group; group amplitudes follow the projection of the input.
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

"""Projection onto large-singular-value subspaces by estimate-and-flag.

The procedure runs singular value estimation on the input, flags every
component whose estimate falls below sigma - (kappa/2) sigma, and measures
the flag. Success leaves the renormalized projection of the input onto the
kept singular directions; failure repeats the attempt. With estimation
precision (kappa/2) sigma / ||A||_F the kept set always contains every
direction with sigma_i >= sigma and never one below (1 - kappa) sigma, so
each run realizes some member of the admissible projector family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixError, ProjectionEmptyError
from .linalg import SvdFactorization, as_vector, svd
from .qsim import (
    PhaseGrid,
    WalkOperator,
    boost_rounds,
    eigenphases,
    median_bin,
    qpe_bin_probabilities,
    sample_phase_bins,
)
from .store import MatrixStore

DEFAULT_KAPPA = 1.0 / 3.0
# Success probabilities at or below this count as zero. An overlap that is
# zero in exact arithmetic (an input orthogonal to the kept span, as on a
# disconnected instance) comes out near 1e-32 after rounding, and a budget of
# ceil((ln n + 7) / beta_sq) would then never run out.
BETA_SQ_FLOOR = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ProjectionParams:
    """Threshold sigma, band width kappa, and an optional retry cap."""

    sigma: float
    kappa: float = DEFAULT_KAPPA
    max_iterations: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise MatrixError(f"threshold must be finite and > 0, got {self.sigma}")
        if not 0.0 < self.kappa < 1.0:
            raise MatrixError(f"kappa must lie in (0, 1), got {self.kappa}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise MatrixError(f"max_iterations must be >= 1, got {self.max_iterations}")

    @property
    def cut(self) -> float:
        """Estimates below this are flagged: sigma (1 - kappa/2)."""
        return self.sigma * (1.0 - self.kappa / 2.0)

    def precision(self, fro: float) -> float:
        """Estimation precision (relative to fro) that keeps the band tight."""
        return (self.kappa / 2.0) * self.sigma / fro


@dataclass(frozen=True)
class ProjectionComponent:
    """Fate of one input component in a projection run."""

    index: int
    amplitude: float
    sigma: float
    sigma_est: float
    kept: bool


@dataclass(frozen=True)
class ProjectionOutcome:
    """Survivor state plus the run's bookkeeping."""

    state: np.ndarray
    iterations: int
    beta_sq: float
    components: tuple[ProjectionComponent, ...]
    path: str

    def kept_indices(self) -> list[int]:
        return [c.index for c in self.components if c.kept]


def default_max_iterations(n: int, beta_sq: float) -> int:
    """Retry budget ceil((ln n + 7) / beta_sq); a bare ceil(ln n + 7) when
    the success probability is at most BETA_SQ_FLOOR (the run can then only
    end in an error, barring a draw below that floor)."""
    base = np.log(n) + 7.0
    if beta_sq <= BETA_SQ_FLOOR:
        return int(np.ceil(base))
    return int(np.ceil(base / beta_sq))


def expected_iterations(beta_sq: float) -> float:
    """Mean geometric waiting time 1 / beta_sq."""
    if not np.isfinite(beta_sq) or not 0.0 < beta_sq <= 1.0:
        raise MatrixError(f"success probability must be in (0, 1], got {beta_sq}")
    return 1.0 / beta_sq


def estimated_spectrum(f: SvdFactorization, params: ProjectionParams) -> np.ndarray:
    """Grid-rounded estimate for every right basis direction (deterministic)."""
    fro = f.frobenius_norm()
    if params.sigma > fro:
        raise MatrixError(f"threshold {params.sigma} exceeds ||A||_F = {fro}")
    grid = PhaseGrid.for_sigma_precision(params.precision(fro))
    thetas = eigenphases(f)
    return np.array([grid.sigma_of(grid.bin_of(t), fro) for t in thetas])


def kept_mask(f: SvdFactorization, params: ProjectionParams) -> np.ndarray:
    """Directions the exact path keeps: estimate >= sigma (1 - kappa/2).

    Independent of the projected vector; the vector only sets amplitudes.
    """
    return estimated_spectrum(f, params) >= params.cut


def exact_kept_components(
    f: SvdFactorization, x, params: ProjectionParams
) -> tuple[list[ProjectionComponent], np.ndarray, np.ndarray]:
    """Deterministic component fates plus (alpha, kept mask) working arrays."""
    vec = as_vector(x, size=f.shape[1])
    norm = np.linalg.norm(vec)
    if norm <= 0.0:
        raise MatrixError("cannot project the zero vector")
    estimates = estimated_spectrum(f, params)
    kept = estimates >= params.cut
    alpha = f.v.T @ (vec / norm)
    comps = [
        ProjectionComponent(
            index=i,
            amplitude=float(abs(alpha[i])),
            sigma=f.singular_value(i),
            sigma_est=float(estimates[i]),
            kept=bool(kept[i]),
        )
        for i in range(f.shape[1])
    ]
    return comps, alpha, kept


def success_probability(f: SvdFactorization, x, params: ProjectionParams) -> float:
    """beta^2: squared overlap of the input with the kept subspace."""
    _, alpha, kept = exact_kept_components(f, x, params)
    return float(np.sum(alpha[kept] ** 2))


def threshold_project(
    source,
    x,
    params: ProjectionParams,
    rng: np.random.Generator,
    path: str = "exact",
) -> ProjectionOutcome:
    """Repeat estimate-flag-measure until the projection survives.

    ``source`` is a MatrixStore, dense matrix, SvdFactorization (exact path)
    or WalkOperator (circuit path). Raises ProjectionEmptyError when every
    allowed repetition measures the flag.
    """
    if path == "exact":
        f = source if isinstance(source, SvdFactorization) else svd(_dense_of(source))
        return _project_exact(f, x, params, rng)
    if path == "circuit":
        if isinstance(source, WalkOperator):
            wop = source
        elif isinstance(source, MatrixStore):
            wop = WalkOperator.from_store(source)
        else:
            wop = WalkOperator.from_dense(_dense_of(source))
        return _project_circuit(wop, x, params, rng)
    raise MatrixError(f"unknown execution path {path!r}")


def _dense_of(source) -> np.ndarray:
    return source.to_dense() if isinstance(source, MatrixStore) else np.asarray(source, dtype=np.float64)


def _project_exact(
    f: SvdFactorization, x, params: ProjectionParams, rng: np.random.Generator
) -> ProjectionOutcome:
    comps, alpha, kept = exact_kept_components(f, x, params)
    beta_sq = float(np.sum(alpha[kept] ** 2))
    limit = params.max_iterations or default_max_iterations(f.shape[1], beta_sq)
    for attempt in range(1, limit + 1):
        if rng.random() < beta_sq:
            state = f.v[:, kept] @ alpha[kept]
            state /= np.linalg.norm(state)
            return ProjectionOutcome(
                state=state,
                iterations=attempt,
                beta_sq=beta_sq,
                components=tuple(comps),
                path="exact",
            )
    raise ProjectionEmptyError(
        f"projection empty: no surviving component after {limit} repetitions",
        beta_sq=beta_sq,
        iterations=limit,
    )


def _project_circuit(
    wop: WalkOperator, x, params: ProjectionParams, rng: np.random.Generator
) -> ProjectionOutcome:
    if params.sigma > wop.fro:
        raise MatrixError(f"threshold {params.sigma} exceeds ||A||_F = {wop.fro}")
    vec = as_vector(x, size=wop.n)
    norm = np.linalg.norm(vec)
    if norm <= 0.0:
        raise MatrixError("cannot project the zero vector")
    grid = PhaseGrid.for_sigma_precision(params.precision(wop.fro))
    rounds = boost_rounds(wop.m, wop.n)
    s = wop.apply_Q(vec / norm).reshape(-1)
    groups = wop.phase_groups()
    weights = np.array([g.overlap_sq(s) for g in groups])
    sigmas = np.array([np.cos(g.theta / 2.0) * wop.fro for g in groups])
    probs = [
        qpe_bin_probabilities(g.theta, grid) if weights[i] > 1e-24 else None
        for i, g in enumerate(groups)
    ]
    # A rough retry budget from the deterministic kept set keeps the loop
    # finite; realized kept sets vary only inside the band.
    beta_guess = float(np.sum(weights[sigmas >= params.cut]))
    limit = params.max_iterations or default_max_iterations(wop.n, beta_guess)
    for attempt in range(1, limit + 1):
        comps = []
        kept_mask = []
        for gid, group in enumerate(groups):
            if probs[gid] is None:
                kept_mask.append(False)
                continue
            bins = sample_phase_bins(group.theta, grid, rounds, rng, probs=probs[gid])
            est = grid.sigma_of(median_bin(bins, grid), wop.fro)
            keep = est >= params.cut
            kept_mask.append(keep)
            comps.append(
                ProjectionComponent(
                    index=gid,
                    amplitude=float(np.sqrt(weights[gid])),
                    sigma=float(sigmas[gid]),
                    sigma_est=est,
                    kept=keep,
                )
            )
        beta_sq = float(np.sum(weights[np.array(kept_mask)]))
        if rng.random() < beta_sq:
            surviving = np.zeros_like(s)
            for gid, group in enumerate(groups):
                if kept_mask[gid]:
                    surviving += group.project(s)
            out = wop.apply_Qt(surviving.reshape(wop.m, wop.n))
            out_norm = np.linalg.norm(out)
            if out_norm <= 0.0:
                continue
            return ProjectionOutcome(
                state=out / out_norm,
                iterations=attempt,
                beta_sq=beta_sq,
                components=tuple(comps),
                path="circuit",
            )
    raise ProjectionEmptyError(
        f"projection empty: no surviving component after {limit} repetitions",
        beta_sq=beta_guess,
        iterations=limit,
    )

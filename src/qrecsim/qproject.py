"""Projection onto large-singular-value subspaces by estimate-and-flag.

The procedure runs singular value estimation on the input, flags every
component whose estimate falls below sigma - (kappa/2) sigma, and measures
the flag. Success leaves the renormalized projection of the input onto the
kept singular directions; failure repeats the attempt. With estimation
precision (kappa/2) sigma / ||A||_F the kept set always contains every
direction with sigma_i >= sigma and never one below (1 - kappa) sigma, so
each run realizes some member of the admissible projector family.

On the exact path the estimates round the true phases, so the kept set is a
function of the factorization alone (``kept_mask``); an input only adds its
overlaps, and exact-path callers share ``kept_state``. On the circuit path
each attempt keeps each group with the probability that its boosted median
estimate reaches the cut, read from the walk's median table, so each attempt
resamples the kept set; the estimates are drawn once, after success, given
the flags. Both paths run their attempts through ``attempts_until_success``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MatrixError, ProjectionEmptyError
from .linalg import SvdFactorization, check_count, check_real, unit_vector
from .qsim import (CircuitSve, PhaseGrid, WalkOperator, component_rows, eigenphases,
                   factorization_of, walk_of)

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
        check_real("positive", sigma=self.sigma)
        check_real("fraction", kappa=self.kappa)
        if self.max_iterations is not None:
            check_count(1, max_iterations=self.max_iterations)

    @property
    def cut(self) -> float:
        """Estimates below this are flagged: sigma (1 - kappa/2)."""
        return self.sigma * (1.0 - self.kappa / 2.0)

    def keeps(self, estimates: np.ndarray) -> np.ndarray:
        """The flag rule: an estimate at or above the cut is kept."""
        return estimates >= self.cut

    def precision(self, fro: float) -> float:
        """Estimation precision (relative to fro) that keeps the band tight."""
        return (self.kappa / 2.0) * self.sigma / fro

    def retry_limit(self, n: int, beta_sq: float) -> int:
        """max_iterations when set, else ``default_max_iterations(n, beta_sq)``."""
        return self.max_iterations or default_max_iterations(n, beta_sq)


class ProjectionComponent(NamedTuple):
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


def projection_grid(params: ProjectionParams, fro: float) -> PhaseGrid:
    """The estimation grid for a matrix of Frobenius norm ``fro``; a zero
    ``fro`` or a threshold above it is rejected."""
    if fro <= 0.0:
        raise MatrixError("||A||_F is 0: every entry is 0 or too small to square")
    if params.sigma > fro:
        raise MatrixError(f"threshold {params.sigma} exceeds ||A||_F = {fro}")
    return PhaseGrid.for_sigma_precision(params.precision(fro))


def estimated_spectrum(f: SvdFactorization, params: ProjectionParams) -> np.ndarray:
    """Grid-rounded estimate for every right basis direction (deterministic)."""
    fro = f.frobenius_norm()
    grid = projection_grid(params, fro)
    return grid.sigma_of(grid.bin_of(eigenphases(f)), fro)


def keep_floor(params: ProjectionParams, fro: float) -> float:
    """The lowest singular value whose estimate can reach the cut.

    Rounding the phase 2 arccos(sigma / fro) to the nearest grid point moves
    the estimate by at most fro * width / 4, so every sigma below cut -
    fro * width / 4 is flagged whatever its bin: ``kept_mask`` depends on
    the singular values at or above this floor and their directions alone.
    """
    return params.cut - fro * projection_grid(params, fro).width / 4.0


def kept_mask(f: SvdFactorization, params: ProjectionParams) -> np.ndarray:
    """Directions the exact path keeps: estimate >= sigma (1 - kappa/2).

    Independent of the projected vector; the vector only sets amplitudes.
    """
    return params.keeps(estimated_spectrum(f, params))


def kept_state(v_kept: np.ndarray, alpha_kept: np.ndarray) -> tuple[float, np.ndarray]:
    """(beta^2, unit survivor state) from the kept right singular vectors and
    the input's overlaps with them; the state is zero when beta^2 is 0."""
    beta_sq = float(np.sum(alpha_kept**2))
    if beta_sq <= 0.0:
        return beta_sq, np.zeros(v_kept.shape[0])
    state = v_kept @ alpha_kept
    state /= np.linalg.norm(state)
    return beta_sq, state


def attempts_until_success(
    attempt: Callable[[], float], beta_sq: float, limit: int, rng: np.random.Generator
) -> int:
    """Attempts up to the first success. Each one takes its success
    probability from ``attempt()`` and then draws one ``rng.random()``
    against it. Raises ProjectionEmptyError, carrying ``beta_sq`` (the
    probability ``limit`` was set from), when all ``limit`` attempts fail."""
    for n in range(1, limit + 1):
        p = attempt()
        if rng.random() < p:
            return n
    raise ProjectionEmptyError(
        f"projection empty: no surviving component after {limit} repetitions",
        beta_sq=beta_sq,
        iterations=limit,
    )


def exact_kept_components(
    f: SvdFactorization, x, params: ProjectionParams
) -> tuple[tuple[ProjectionComponent, ...], np.ndarray, np.ndarray]:
    """Deterministic component fates plus (alpha, kept mask) working arrays."""
    alpha = f.v.T @ unit_vector(x, f.shape[1])
    estimates = estimated_spectrum(f, params)
    kept = params.keeps(estimates)
    cols = (np.arange(kept.size), np.abs(alpha), f.column_sigma(), estimates, kept)
    return component_rows(ProjectionComponent, *cols), alpha, kept


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
        return _project_exact(factorization_of(source), x, params, rng)
    if path == "circuit":
        return _project_circuit(walk_of(source), x, params, rng)
    raise MatrixError(f"unknown execution path {path!r}")


def _project_exact(
    f: SvdFactorization, x, params: ProjectionParams, rng: np.random.Generator
) -> ProjectionOutcome:
    comps, alpha, kept = exact_kept_components(f, x, params)
    beta_sq, state = kept_state(f.v[:, kept], alpha[kept])
    limit = params.retry_limit(f.shape[1], beta_sq)
    return ProjectionOutcome(
        state=state,
        iterations=attempts_until_success(lambda: beta_sq, beta_sq, limit, rng),
        beta_sq=beta_sq,
        components=comps,
    )


def _project_circuit(
    wop: WalkOperator, x, params: ProjectionParams, rng: np.random.Generator
) -> ProjectionOutcome:
    grid = projection_grid(params, wop.fro)
    est = CircuitSve(wop, x, grid, params)
    g = est.carrying
    odds = est.table.q[g]
    # A rough retry budget from the weight on groups whose true sigma reaches
    # the cut keeps the loop finite; realized kept sets vary only in the band.
    beta_guess = float(np.sum(est.weights[est.groups.sigma >= params.cut]))
    kept = beta_sq = None

    def attempt() -> float:
        nonlocal kept, beta_sq
        kept = rng.random(len(g)) < odds
        beta_sq = float(np.sum(est.weights[g[kept]]))
        return beta_sq

    limit = params.retry_limit(wop.n, beta_guess)
    iterations = attempts_until_success(attempt, beta_guess, limit, rng)
    sigma_est = est.estimates_given(kept, rng)
    out = est.survivor(g[kept])
    cols = (g, np.sqrt(est.weights[g]), est.groups.sigma[g], sigma_est, kept)
    return ProjectionOutcome(
        state=out / np.linalg.norm(out),
        iterations=iterations,
        beta_sq=beta_sq,
        components=component_rows(ProjectionComponent, *cols),
    )

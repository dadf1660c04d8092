"""Preference instances, recommendation sampling, and quality bounds.

A preference matrix T marks which products each user likes. Recommendation
quality is measured against T itself: drawing column j for user i is bad
when T_ij = 0. Sampling instead from a low-rank or threshold-projected
surrogate of T is good on average because the surrogate concentrates mass
on the planted structure; the bounds here quantify how much of the sampled
mass can land on bad cells, overall and for "typical" users whose row mass
is close to the per-user average.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import BoundVacuousError, ColdStartError, MatrixError
from .linalg import SvdFactorization, as_matrix, svd, unit_vector
from .qproject import ProjectionParams, attempts_until_success, keep_floor, kept_mask, kept_state
from .rng import choice_cdf
from .store import MatrixStore


def generate_T(
    m: int, n: int, k: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    """Planted 0/1 preference matrix: k user types plus independent flips.

    Each of the k type rows likes each product with probability 1/2 (redrawn
    if empty); every user copies one uniformly chosen type, then each cell
    flips with probability ``noise``. With noise = 0 the rank is at most k.
    """
    if m < 1 or n < 1 or k < 1:
        raise MatrixError(f"m, n, k must be >= 1, got {m}, {n}, {k}")
    if not 0.0 <= noise < 1.0:
        raise MatrixError(f"noise must be in [0, 1), got {noise}")
    types = rng.integers(0, 2, size=(k, n)).astype(np.float64)
    for t in range(k):
        while not types[t].any():
            types[t] = rng.integers(0, 2, size=n).astype(np.float64)
    assignment = rng.integers(0, k, size=m)
    matrix = types[assignment]
    if noise > 0.0:
        flips = rng.random((m, n)) < noise
        matrix = np.where(flips, 1.0 - matrix, matrix)
    return matrix


# -- analytic bounds ---------------------------------------------------------


def bad_sample_bound(eps: float) -> float:
    """Bad-cell mass bound (eps / (1 - eps))^2 for rank-k surrogate sampling.

    eps is the relative truncation error ||T - T_k||_F / ||T||_F; the bound
    covers the row-mass-weighted average bad probability.
    """
    _check_eps(eps)
    return (eps / (1.0 - eps)) ** 2


def typical_user_bound(eps: float, gamma: float, delta: float, zeta: float) -> float:
    """Bad-sample bound conditioned on hitting a typical user.

    (eps (1+eps) / (1-eps))^2 / ((1/sqrt(1+gamma) - eps/sqrt(delta))^2
    (1 - delta - zeta)). Raises BoundVacuousError when the denominator
    closes (eps too large relative to delta).
    """
    _check_eps(eps)
    _check_fractions(gamma=gamma, delta=delta, zeta=zeta)
    margin = 1.0 / np.sqrt(1.0 + gamma) - eps / np.sqrt(delta)
    if margin <= 0.0:
        raise BoundVacuousError(
            f"bound vacuous: eps={eps} needs eps < sqrt(delta)/sqrt(1+gamma)"
        )
    num = (eps * (1.0 + eps) / (1.0 - eps)) ** 2
    return float(num / (margin**2 * (1.0 - delta - zeta)))


def quantum_typical_user_bound(eps: float, gamma: float, delta: float, zeta: float) -> float:
    """Typical-user bound for the full quantum pipeline.

    The end-to-end surrogate error is at most 9 eps, so this is the plain
    bound with eps replaced by 9 eps throughout.
    """
    _check_eps(eps)
    if 9.0 * eps >= 1.0:
        raise BoundVacuousError(f"bound vacuous: 9 eps = {9.0 * eps} >= 1")
    return typical_user_bound(9.0 * eps, gamma, delta, zeta)


def w_statistic_bound(
    eps: float, gamma: float, delta: float, zeta: float, xi: float
) -> float:
    """Bound on the per-user overhead W_i holding for >= (1-xi) of typical users.

    (1 + eps)^2 / (xi (1 - delta - zeta) (1/sqrt(1+gamma) - 9 eps/sqrt(delta))^2).
    """
    _check_eps(eps)
    _check_fractions(gamma=gamma, delta=delta, zeta=zeta)
    if not 0.0 < xi < 1.0:
        raise MatrixError(f"xi must be in (0, 1), got {xi}")
    margin = 1.0 / np.sqrt(1.0 + gamma) - 9.0 * eps / np.sqrt(delta)
    if margin <= 0.0:
        raise BoundVacuousError(
            f"bound vacuous: 9 eps = {9.0 * eps} needs 9 eps < sqrt(delta)/sqrt(1+gamma)"
        )
    return float((1.0 + eps) ** 2 / (xi * (1.0 - delta - zeta) * margin**2))


def _check_eps(eps: float) -> None:
    if not np.isfinite(eps) or not 0.0 < eps < 1.0:
        raise MatrixError(f"eps must be in (0, 1), got {eps}")


def _check_fractions(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value) or not 0.0 < value < 1.0:
            raise MatrixError(f"{name} must be in (0, 1), got {value}")
    if "delta" in values and "zeta" in values and values["delta"] + values["zeta"] >= 1.0:
        raise MatrixError("delta + zeta must be < 1")


# -- typical users -----------------------------------------------------------


def typical_set(t, gamma: float) -> np.ndarray:
    """Users whose squared row norm is within (1+gamma) of the average.

    Returns a boolean mask: ||T||_F^2 / ((1+gamma) m) <= ||T_i||^2 <=
    (1+gamma) ||T||_F^2 / m, both edges inclusive.
    """
    arr = as_matrix(t)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise MatrixError(f"gamma must be finite and > 0, got {gamma}")
    row_sq = np.sum(arr * arr, axis=1)
    avg = np.sum(row_sq) / arr.shape[0]
    return (row_sq >= avg / (1.0 + gamma)) & (row_sq <= avg * (1.0 + gamma))


# -- recommendation -----------------------------------------------------------


class RecommendOutcome(NamedTuple):
    """One recommendation, a named tuple: the product plus the run's bookkeeping."""

    user: int
    product: int
    iterations: int
    beta_sq: float
    w_stat: float


class RecommendContext:
    """Projection data for repeated recommendations against one store.

    Factorizes the stored matrix and computes the exact kept set once per
    context (it depends on the matrix alone). The factorization resolves
    the singular values down to ``keep_floor``, the lowest one whose grid
    estimate can reach the cut, and certifies the rest below it; the kept
    set is over the resolved directions, and ``v_kept`` holds V's kept
    columns. Each user's overlaps and post-projection distribution are
    computed once, and so are the beta^2 source, retry budget and inverse
    CDF of the user's first recommendation; individual calls only consume
    randomness (retry draws and the final measurement).
    """

    def __init__(self, source, params: ProjectionParams):
        if isinstance(source, MatrixStore):
            self.dense = source.to_dense()
        else:
            self.dense = as_matrix(source)
        self.params = params
        floor = keep_floor(params, float(np.linalg.norm(self.dense)))
        self.f: SvdFactorization = svd(self.dense, floor=floor)
        self.kept = kept_mask(self.f, params)
        self.v_kept = np.ascontiguousarray(self.f.v[:, self.kept])
        self._users: dict[int, tuple[np.ndarray, float, np.ndarray]] = {}
        self._draws: dict[int, tuple[Callable[[], float], float, int, np.ndarray | None]] = {}

    def user_state(self, i: int) -> tuple[np.ndarray, float, np.ndarray]:
        """(probabilities, beta_sq, projected unit row) for user i."""
        if i in self._users:
            return self._users[i]
        if not 0 <= i < self.dense.shape[0]:
            raise MatrixError(f"user index {i} outside [0, {self.dense.shape[0]})")
        row = self.dense[i]
        if not row.any():
            raise ColdStartError(f"cold-start user: user {i} has no stored entries")
        alpha = self.v_kept.T @ unit_vector(row, self.dense.shape[1])
        beta_sq, state = kept_state(self.v_kept, alpha)
        self._users[i] = (state**2, beta_sq, state)
        return self._users[i]

    def recommend(self, i: int, rng: np.random.Generator) -> RecommendOutcome:
        """Project user i's stored row, then measure a product index.

        Draws the same bits as a retry loop followed by ``rng.choice(n,
        p=probabilities)``.
        """
        draws = self._draws.get(i)
        if draws is None:
            probs, beta_sq, _ = self.user_state(i)
            # A zero beta_sq exhausts every budget, so its CDF is never read.
            cdf = choice_cdf(probs) if beta_sq > 0.0 else None
            limit = self.params.retry_limit(self.dense.shape[1], beta_sq)
            draws = self._draws[i] = (lambda: beta_sq, beta_sq, limit, cdf)
        attempt, beta_sq, limit, cdf = draws
        iterations = attempts_until_success(attempt, beta_sq, limit, rng)
        product = int(cdf.searchsorted(rng.random(), side="right"))
        return RecommendOutcome(i, product, iterations, beta_sq, 1.0 / beta_sq)


def recommendation_sigma(eps: float, p: float, k: int, norm_f_hat: float) -> float:
    """Threshold sqrt(eps^2 p / (2 k)) ||That||_F used for recommendations."""
    _check_eps(eps)
    if not 0.0 < p <= 1.0:
        raise MatrixError(f"sampling probability must be in (0, 1], got {p}")
    if k < 1:
        raise MatrixError(f"target rank k must be >= 1, got {k}")
    if not np.isfinite(norm_f_hat) or norm_f_hat <= 0.0:
        raise MatrixError(f"norm must be finite and > 0, got {norm_f_hat}")
    return float(np.sqrt(eps * eps * p / (2.0 * k)) * norm_f_hat)

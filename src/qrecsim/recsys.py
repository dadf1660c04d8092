"""Preference instances, recommendation sampling, and quality bounds.

A preference matrix T marks which products each user likes. Recommendation
quality is measured against T itself: drawing column j for user i is bad
when T_ij = 0. Sampling instead from a low-rank or threshold-projected
surrogate of T is good on average because the surrogate concentrates mass
on the planted structure; the bounds here quantify how much of the sampled
mass can land on bad cells, overall and for "typical" users whose row mass
is close to the per-user average. ``RecommendContext`` serves repeated
recommendations from one store and keeps one cached record per user.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BoundVacuousError, ColdStartError, MatrixError
from .linalg import SvdFactorization, as_matrix, check_count, check_real, svd, unit_vector
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
    check_count(1, m=m, n=n, k=k)
    check_real("rate", noise=noise)
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
    check_real("fraction", eps=eps)
    return (eps / (1.0 - eps)) ** 2


def typical_user_bound(eps: float, gamma: float, delta: float, zeta: float) -> float:
    """Bad-sample bound conditioned on hitting a typical user.

    (eps (1+eps) / (1-eps))^2 / ((1/sqrt(1+gamma) - eps/sqrt(delta))^2
    (1 - delta - zeta)). Raises BoundVacuousError when the denominator
    closes (eps too large relative to delta).
    """
    check_bound_params(gamma, delta, zeta, eps=eps)
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
    check_bound_params(gamma, delta, zeta, eps=eps)
    if 9.0 * eps >= 1.0:
        raise BoundVacuousError(f"bound vacuous: 9 eps = {9.0 * eps} >= 1")
    return typical_user_bound(9.0 * eps, gamma, delta, zeta)


def w_statistic_bound(
    eps: float, gamma: float, delta: float, zeta: float, xi: float
) -> float:
    """Bound on the per-user overhead W_i holding for >= (1-xi) of typical users.

    (1 + eps)^2 / (xi (1 - delta - zeta) (1/sqrt(1+gamma) - 9 eps/sqrt(delta))^2).
    """
    check_bound_params(gamma, delta, zeta, eps=eps, xi=xi)
    margin = 1.0 / np.sqrt(1.0 + gamma) - 9.0 * eps / np.sqrt(delta)
    if margin <= 0.0:
        raise BoundVacuousError(
            f"bound vacuous: 9 eps = {9.0 * eps} needs 9 eps < sqrt(delta)/sqrt(1+gamma)"
        )
    return float((1.0 + eps) ** 2 / (xi * (1.0 - delta - zeta) * margin**2))


def check_bound_params(gamma: float, delta: float, zeta: float, **more: float) -> None:
    """The domain of the typical-user bounds: gamma, delta, zeta and each of
    ``more`` (eps, xi) in (0, 1), and delta + zeta < 1."""
    check_real("fraction", **more, gamma=gamma, delta=delta, zeta=zeta)
    if delta + zeta >= 1.0:
        raise MatrixError(f"delta + zeta must be < 1, got {delta!r} + {zeta!r}")


# -- typical users -----------------------------------------------------------


def typical_set(t, gamma: float) -> np.ndarray:
    """Users whose squared row norm is within (1+gamma) of the average.

    Returns a boolean mask: ||T||_F^2 / ((1+gamma) m) <= ||T_i||^2 <=
    (1+gamma) ||T||_F^2 / m, both edges inclusive.
    """
    arr = as_matrix(t)
    check_real("positive", gamma=gamma)
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


class RecommendContext:
    """Projection data for repeated recommendations against one store.

    Factorizes the stored matrix and computes the exact kept set once per
    context (it depends on the matrix alone). The factorization resolves
    the singular values down to ``keep_floor``, the lowest one whose grid
    estimate can reach the cut, and certifies the rest below it; the kept
    set is over the resolved directions, and ``v_kept`` holds V's kept
    columns. ``user_state`` builds each user's record once: beta^2 and
    state, then the beta^2 source, retry budget and inverse CDF (None when
    beta^2 is 0, which exhausts every budget) that the user's
    recommendations draw with. Individual calls only consume randomness
    (retry draws and the final measurement).
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
        self._users: dict[int, tuple] = {}  # user -> the record ``user_state`` builds

    def user_state(self, i: int) -> tuple[np.ndarray, float, np.ndarray]:
        """(probabilities, beta_sq, projected unit row) for user i."""
        user = self._users.get(i)
        if user is None:
            m, n = self.dense.shape
            if not 0 <= i < m:
                raise MatrixError(f"user index {i} outside [0, {m})")
            row = self.dense[i]
            if not row.any():
                raise ColdStartError(f"cold-start user: user {i} has no stored entries")
            beta_sq, state = kept_state(self.v_kept, self.v_kept.T @ unit_vector(row, n))
            cdf = choice_cdf(state**2) if beta_sq > 0.0 else None
            limit = self.params.retry_limit(n, beta_sq)
            user = self._users[i] = (beta_sq, state, lambda: beta_sq, limit, cdf)
        return user[1] ** 2, user[0], user[1]

    def recommend(self, i: int, rng: np.random.Generator) -> RecommendOutcome:
        """Project user i's stored row, then measure a product index.

        Draws the same bits as a retry loop followed by ``rng.choice(n,
        p=probabilities)``.
        """
        user = self._users.get(i)
        if user is None:
            self.user_state(i)
            user = self._users[i]
        beta_sq, _, attempt, limit, cdf = user
        iterations = attempts_until_success(attempt, beta_sq, limit, rng)
        product = int(cdf.searchsorted(rng.random(), side="right"))
        return RecommendOutcome(i, product, iterations, beta_sq)


def recommendation_sigma(eps: float, p: float, k: int, norm_f_hat: float) -> float:
    """Threshold sqrt(eps^2 p / (2 k)) ||That||_F used for recommendations."""
    check_real("fraction", eps=eps)
    check_real("probability", p=p)
    check_count(1, k=k)
    check_real("positive", norm_f_hat=norm_f_hat)
    return float(np.sqrt(eps * eps * p / (2.0 * k)) * norm_f_hat)

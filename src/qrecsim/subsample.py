"""Entrywise matrix subsampling and its reconstruction-error bounds.

Each cell of A survives independently with probability p and is rescaled to
A_ij / p, so the subsample is an unbiased estimator of A with per-entry
variance controlled by p. The derivations here tie together the knobs of the
low-rank reconstruction pipeline: the sampling probability p, the noise scale
eta, the estimation resolution mu, and the singular value threshold
sigma = sqrt(mu/k) * ||Ahat||_F used to denoise the subsample.
``derive_params`` resolves p, eta and mu for one matrix into one
``SubsampleParams`` record. The guarantee holds when the formula p = 16 n
b^2 / (eta_max ||A||_F)^2 is at most 1, and the record's status is read off
that p alone; above 1 the bounds are extrapolations. The band width kappa
belongs to the projection (``qproject.ProjectionParams``), and the bound
here takes it as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixError
from .linalg import as_matrix, check_count, check_real


def subsample(a, p: float, rng: np.random.Generator) -> np.ndarray:
    """Keep each entry with probability p, rescaled by 1/p, else zero it.

    One uniform draw is consumed per cell in row-major order, so the result
    is a pure function of (A, p, generator state).
    """
    arr = as_matrix(a)
    check_real("probability", p=p)
    mask = rng.random(arr.shape) < p
    return np.where(mask, arr / p, 0.0)


def entry_bound(a) -> float:
    """Smallest b with all |A_ij| <= b."""
    return float(np.max(np.abs(as_matrix(a))))


def sampling_probability(n: int, b: float, eta: float, norm_f: float) -> float:
    """p = 16 n b^2 / (eta ||A||_F)^2, unclamped.

    Callers clamp to 1; values above 1 mean the target noise scale eta is
    unreachable by subsampling this matrix.
    """
    check_real("positive", n=n, b=b, eta=eta, norm_f=norm_f)
    return 16.0 * n * b * b / (eta * norm_f) ** 2


def noise_scale(p: float, n: int, b: float, norm_f: float) -> float:
    """eta implied by a given p: eta = 4 sqrt(n) b / (sqrt(p) ||A||_F)."""
    check_real("positive", p=p, n=n, b=b, norm_f=norm_f)
    return 4.0 * np.sqrt(n) * b / (np.sqrt(p) * norm_f)


def noise_scale_max(n: int, k: int, eps: float, norm_f: float) -> float:
    """Largest admissible eta: 2 n^(1/4) eps^(3/2) / (3 (2k)^(1/4) sqrt(||A||_F))."""
    check_real("positive", n=n, k=k, eps=eps, norm_f=norm_f)
    return 2.0 * n**0.25 * eps**1.5 / (3.0 * (2.0 * k) ** 0.25 * np.sqrt(norm_f))


@dataclass(frozen=True)
class SubsampleParams:
    """Resolved sampling knobs for one matrix, with the estimation
    resolution mu = eps^2 p / 2 they imply.

    ``formula_p`` is the unclamped formula p, and ``status`` is
    "precondition-satisfied" when it is at most 1, "extrapolated" otherwise.
    Equivalently, ||A||_F >= 36 sqrt(2) sqrt(nk) b^2 / eps^3. The threshold
    itself scales with ||Ahat||_F, so it is set once the subsample exists
    (``recsys.recommendation_sigma``).
    """

    p: float
    b: float
    eta: float
    eta_max: float
    formula_p: float
    mu: float

    @property
    def status(self) -> str:
        return "precondition-satisfied" if self.formula_p <= 1.0 else "extrapolated"


def derive_params(a, k: int, eps: float, p: float | None = None) -> SubsampleParams:
    """Resolve every subsample knob for matrix ``a``.

    When p is omitted it is set from the formula p = 16 n b^2 / (eta_max
    ||A||_F)^2, clamped to 1. When p is given, the implied eta is derived by
    inverting the same formula, so the reported (p, eta) pair is always
    consistent. mu = eps^2 p / 2 either way.
    """
    arr = as_matrix(a)
    n = arr.shape[1]
    check_count(1, k=k)
    check_real("fraction", eps=eps)
    norm_f = float(np.linalg.norm(arr))
    if norm_f == 0.0:
        raise MatrixError("cannot derive parameters for a zero matrix")
    b = entry_bound(arr)
    e_max = noise_scale_max(n, k, eps, norm_f)
    raw = sampling_probability(n, b, e_max, norm_f)
    if p is None:
        p = min(1.0, raw)
    check_real("probability", p=p)
    eta = noise_scale(p, n, b, norm_f)
    return SubsampleParams(
        p=float(p),
        b=b,
        eta=eta,
        eta_max=e_max,
        formula_p=raw,
        mu=eps * eps * p / 2.0,
    )


def bound_threshold_family_error(
    err_k: float, eta: float, k: int, mu: float, p: float, kappa: float, norm_f: float
) -> float:
    """Bound on ||A - Ahat_{>=sigma,kappa}||_F for any member of the family.

    3 err_k + (3 sqrt(eta) k^(1/4) mu^(-1/4) (2 + (1-kappa)^(-1/2))
    + (3-kappa) sqrt(2 mu / p)) ||A||_F. With mu = eps^2 p / 2, eta at its
    maximum, and kappa = 1/3 this collapses to at most 9 eps ||A||_F.
    """
    check_real("positive", k=k, p=p, norm_f=norm_f)
    check_real("nonnegative", err_k=err_k, eta=eta, mu=mu)
    check_real("fraction", kappa=kappa)
    if eta > 0.0 and mu == 0.0:
        raise MatrixError("mu must be > 0 when eta is")
    spread = 0.0 if eta == 0.0 else 3.0 * np.sqrt(eta) * k**0.25 / mu**0.25
    spread *= 2.0 + 1.0 / np.sqrt(1.0 - kappa)
    tail = (3.0 - kappa) * np.sqrt(2.0 * mu / p)
    return float(3.0 * err_k + (spread + tail) * norm_f)

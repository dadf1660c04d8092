"""Deterministic random streams fanned out from one master seed.

Every stochastic component draws from its own named stream so that adding
draws to one component never perturbs another, and a whole experiment is
reproducible from a single integer. Stream names are hashed to integers and
mixed into a ``numpy`` SeedSequence together with the master seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import MatrixError

DEFAULT_SEED = 20160321
# How far from 1 a distribution's sum may be, as in ``Generator.choice``.
SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))


def _name_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(master_seed: int, *names: str) -> np.random.Generator:
    """Independent generator for the sub-stream addressed by ``names``.

    The same (seed, names) pair always yields the same stream; distinct
    names yield statistically independent streams.
    """
    keys = [_name_key(n) for n in names]
    return np.random.default_rng(np.random.SeedSequence([master_seed, *keys]))


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """Inverse-CDF table for repeated draws from the distribution p; for a
    2-D p, one table per row.

    Checks each distribution as ``Generator.choice`` does (no negative
    entry, sum within sqrt(eps) of 1) and normalizes its cumulative sum the
    same way, so ``cdf.searchsorted(rng.random(), side="right")`` draws the
    index that ``rng.choice(len(p), p=p)`` would, bit for bit. A NaN fails
    the sum check.
    """
    # A scalar for a 1-D p; min's initial 0.0 lets an empty p reach this check.
    within = abs(p.sum(axis=-1) - 1.0) <= SUM_TOL
    if p.min(initial=0.0) < 0.0 or not (within if p.ndim == 1 else within.all()):
        raise MatrixError("probabilities must be non-negative and sum to 1")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[-1] if p.ndim == 1 else cdf[..., -1:]
    return cdf

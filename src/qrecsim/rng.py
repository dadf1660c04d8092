"""Deterministic random streams fanned out from one master seed.

Every stochastic component draws from its own named stream so that adding
draws to one component never perturbs another, and a whole experiment is
reproducible from a single integer. Stream names are hashed to integers and
mixed into a ``numpy`` SeedSequence together with the master seed.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import MatrixError

SEED_ENV_VAR = "QRECSIM_SEED"
DEFAULT_SEED = 20160321


def _name_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def default_seed() -> int:
    """Master seed from the environment, or the package default."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


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
    index that ``rng.choice(len(p), p=p)`` would, bit for bit.
    """
    atol = np.sqrt(np.finfo(np.float64).eps)
    if (p < 0.0).any() or not (abs(p.sum(axis=-1) - 1.0) <= atol).all():
        raise MatrixError("probabilities must be non-negative and sum to 1")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf

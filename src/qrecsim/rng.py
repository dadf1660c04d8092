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


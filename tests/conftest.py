"""Shared fixtures."""

import pytest

from qrecsim import experiment
from qrecsim.experiment import ExperimentConfig, run_experiment
from qrecsim.rng import DEFAULT_SEED


@pytest.fixture
def default_context_input(monkeypatch):
    """(matrix, ProjectionParams) that the default config's experiment
    hands its RecommendContext: the 64 x 64 subsample and its threshold."""
    seen = []

    def context(a, params, _build=experiment.RecommendContext):
        seen.append((a, params))
        return _build(a, params)

    monkeypatch.setattr(experiment, "RecommendContext", context)
    run_experiment(ExperimentConfig(seed=DEFAULT_SEED, users=0))
    [(a, params)] = seen
    return a, params

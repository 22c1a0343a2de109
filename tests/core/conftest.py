"""Fixtures shared by the core test modules."""

from __future__ import annotations

import pytest

from repro.core.heteromap import HeteroMap
from repro.core.online import AdaptationConfig, DriftInjectedBackend
from repro.runtime.deploy import prepare_workload


@pytest.fixture(scope="session")
def retrain_matrices():
    """Base database plus replicated buffer, as a drift retrain sees them."""
    hetero = HeteroMap.with_default_pair(predictor="cart", seed=0)
    hetero.train(num_samples=80, seed=0)
    backend = DriftInjectedBackend(
        hetero.engine.backend, factor=8.0, start_after=40, kind="gpu"
    )
    hetero.engine.backend = backend
    adapter = hetero.enable_adaptation(
        AdaptationConfig(
            cooldown=32, shadow_window=24, min_buffer=8, drift_min_samples=8
        )
    )
    stream = [
        prepare_workload(*item)
        for item in (
            ("pagerank", "twitter"),
            ("bfs", "cage14"),
            ("sssp_bf", "twitter"),
            ("triangle_counting", "livejournal"),
        )
    ]
    for index in range(120):
        workload = stream[index % len(stream)]
        decision = hetero.decisions.decide(workload)
        result = backend.execute(workload, decision.spec, decision.config)
        hetero.decisions.audit(decision, decision.spec, decision.config, result)
    assert adapter.retrains >= 1
    return adapter._training_matrices()

"""Decision layer: both-device estimates and cache plumbing."""

from __future__ import annotations

import pytest

from repro import obs
from repro.accel.simulator import simulate
from repro.core.heteromap import HeteroMap
from repro.errors import NotTrainedError
from repro.obs.config import ObsConfig


class TestDecideBatch:
    def test_requires_training(self):
        hetero = HeteroMap.with_default_pair(predictor="deep16")
        with pytest.raises(NotTrainedError):
            hetero.decisions.decide_batch([])

    def test_chosen_matches_plan_batch(self, trained, batch):
        decisions = trained.decisions.decide_batch(batch)
        plans = trained.decisions.plan_batch(batch)
        for decision, (spec, config) in zip(decisions, plans):
            assert decision.spec is spec
            assert decision.config == config

    def test_estimates_cover_both_devices(self, trained, batch):
        for decision in trained.decisions.decide_batch(batch):
            names = {decision.chosen.spec.name, decision.other.spec.name}
            assert names == {trained.gpu.name, trained.multicore.name}

    def test_estimates_match_direct_simulation(self, trained, batch):
        for workload, decision in zip(batch, trained.decisions.decide_batch(batch)):
            for estimate in (decision.chosen, decision.other):
                direct = simulate(workload.profile, estimate.spec, estimate.config)
                assert estimate.result == direct
                assert estimate.time_ms == direct.time_ms
                assert estimate.energy_j == direct.energy_j

    def test_estimate_for_unknown_device(self, trained, batch):
        decision = trained.decisions.decide(batch[0])
        assert decision.estimate_for(trained.gpu.name).spec is trained.gpu
        with pytest.raises(KeyError):
            decision.estimate_for("not-a-device")

    def test_decision_vector_read_only(self, trained, batch):
        decision = trained.decisions.decide(batch[0])
        with pytest.raises(ValueError):
            decision.vector[0] = 0.5

    def test_cache_stats_gauged(self, trained, batch):
        obs.configure(ObsConfig(enabled=True))
        try:
            trained.decisions.decide_batch(batch)
            snapshot = obs.prometheus_text()
            assert "serve_decision_cache_size" in snapshot
            assert "serve_decision_cache_capacity" in snapshot
            assert "serve_decision_cache_evictions" in snapshot
        finally:
            obs.configure(ObsConfig(enabled=False))

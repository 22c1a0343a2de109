"""Acceptance: confidence/exploration machinery off -> decisions bit-identical.

The uncertainty layer (PR 10) promises that everything it adds is a pure
side computation: a :class:`DecisionService` with ``track_confidence``
on (but no exploration policy and no adapter) must produce decisions
bit-identical to an untracked service, for **every** predictor family
and on an N=4 synthetic fleet — and an *attached* exploration policy
must never change what ``plan_batch`` returns, only what it audits.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.encoding import NUM_FEATURES, NUM_TARGETS
from repro.core.heteromap import HeteroMap
from repro.core.online import ExplorationConfig, ExplorationPolicy
from repro.core.predictors import make_predictor, predictor_names
from repro.core.predictors.base import LearnedPredictor
from repro.machine.fleet import synthetic_fleet
from repro.runtime.deploy import prepare_workload
from repro.runtime.engine.decision import DecisionService

ITEMS = (
    ("pagerank", "facebook"),
    ("bfs", "cage14"),
    ("pagerank", "twitter"),
    ("sssp_bf", "usa-cal"),
)


def _service(predictor, family: str, fleet) -> DecisionService:
    service = DecisionService(
        predictor, fleet, predictor_name=family, metric="time", cache=None
    )
    service.overhead_ms = 0.0
    return service


@pytest.fixture(scope="module")
def fleet4():
    return synthetic_fleet(4)


@pytest.fixture(scope="module")
def probes():
    rng = np.random.default_rng(17)
    return np.round(rng.integers(0, 11, size=(8, NUM_FEATURES)) / 10.0, 1)


class TestTrackedBitIdentity:
    """track_confidence on, nothing else: same spec, config, and bytes."""

    @pytest.mark.parametrize("family", sorted(predictor_names()))
    def test_all_families_on_synthetic_fleet(self, family, fleet4, probes):
        predictor = make_predictor(
            family, fleet4.primary_gpu, fleet4.primary_multicore, seed=3
        )
        if isinstance(predictor, LearnedPredictor):
            rng = np.random.default_rng(3)
            predictor.fit(
                rng.random((20, NUM_FEATURES)), rng.random((20, NUM_TARGETS))
            )
        plain = _service(predictor, family, fleet4)
        tracked = _service(predictor, family, fleet4)
        tracked.track_confidence = True
        baseline = plain.choose_encoded(probes)
        shadowed = tracked.choose_encoded(probes)
        for row, (a, b) in enumerate(zip(baseline, shadowed)):
            assert a.spec is b.spec, f"{family} row {row}: spec diverged"
            assert a.config == b.config, f"{family} row {row}: config diverged"
            assert np.array_equal(a.vector, b.vector), (
                f"{family} row {row}: vector bytes diverged"
            )
            assert a.confidence is None
            assert b.confidence is not None


class TestExplorationNeverChangesPlans:
    """An attached policy probes the audit stream, not the plans."""

    @pytest.fixture(scope="class")
    def trained_pair(self):
        frozen = HeteroMap.with_default_pair(predictor="cart", seed=9)
        frozen.train(num_samples=40, seed=9)
        exploring = HeteroMap.with_default_pair(predictor="cart", seed=9)
        exploring.train(num_samples=40, seed=9)
        policy = exploring.enable_exploration(
            ExplorationConfig(rate=1.0, confidence_threshold=1.0)
        )
        return frozen, exploring, policy

    def test_plans_bit_identical_under_probing(self, trained_pair):
        frozen, exploring, policy = trained_pair
        workloads = [prepare_workload(*item) for item in ITEMS]
        for _ in range(2):
            plans = frozen.plan_batch(workloads)
            probed = exploring.plan_batch(workloads)
            for (spec_a, config_a), (spec_b, config_b) in zip(plans, probed):
                assert spec_a is spec_b
                assert config_a == config_b
        assert policy.probes > 0  # the probes actually happened

    def test_enable_exploration_turns_tracking_on(self, trained_pair):
        _, exploring, _ = trained_pair
        assert exploring.decisions.track_confidence
        assert isinstance(exploring.decisions.exploration, ExplorationPolicy)


class TestProbeAuditRecord:
    """A probe's audit record: explored, never observed, costed on the
    fleet exactly like the decide tier costs the same workload."""

    def test_probe_record_pins_chosen_and_runner_up(self):
        names = ("gtx750ti", "gtx970", "xeonphi7120p", "cpu40core")
        hetero = HeteroMap(names, predictor="cart", seed=9)
        hetero.train(num_samples=40, seed=9)
        hetero.enable_exploration(
            ExplorationConfig(rate=1.0, confidence_threshold=1.0)
        )
        workloads = {item: prepare_workload(*item) for item in ITEMS}
        state = obs.configure(obs.ObsConfig(enabled=True))
        try:
            hetero.plan_batch(list(workloads.values()))
            records = list(state.decisions)
        finally:
            obs.reset()
        assert records and all(record.explored for record in records)
        for record in records:
            decision = hetero.decisions.decide(
                workloads[(record.benchmark, record.dataset)]
            )
            chosen = decision.chosen
            best_other = min(
                (e for e in decision.estimates if e is not chosen),
                key=lambda e: (e.time_ms, e.spec.name),
            )
            assert record.observed_time_ms is None
            assert record.chosen_accelerator == chosen.spec.name
            assert record.predicted_time_ms == chosen.time_ms
            assert record.runner_up_accelerator == best_other.spec.name
            assert record.runner_up_time_ms == best_other.time_ms
            assert record.devices == tuple(hetero.fleet.names)
            assert record.costs_ms == decision.costs_ms

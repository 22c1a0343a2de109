"""Placement layer: policy invariants on the simulated device clocks."""

from __future__ import annotations

import pytest

from repro.machine.fleet import Fleet
from repro.runtime.engine import POLICIES, Scheduler
from repro.runtime.engine.decision import DecisionService


@pytest.fixture(scope="module")
def decisions(trained, batch):
    return trained.decisions.decide_batch(batch)


@pytest.fixture()
def scheduler(trained):
    return Scheduler(trained.fleet)


def _makespan(placements):
    return max((p.finish_ms for p in placements), default=0.0)


class TestPolicies:
    def test_unknown_policy_rejected(self, scheduler, decisions):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            scheduler.place(decisions, policy="round-robin")

    def test_placements_in_input_order(self, scheduler, decisions):
        for policy in POLICIES:
            placements = scheduler.place(decisions, policy=policy)
            assert [p.order for p in placements] == list(range(len(decisions)))
            assert [p.decision for p in placements] == decisions

    def test_deterministic_for_fixed_batch_order(self, scheduler, decisions):
        for policy in POLICIES:
            first = scheduler.place(decisions, policy=policy)
            second = scheduler.place(decisions, policy=policy)
            for a, b in zip(first, second):
                assert a.deployed.spec.name == b.deployed.spec.name
                assert a.start_ms == b.start_ms
                assert a.finish_ms == b.finish_ms

    def test_empty_batch(self, scheduler):
        for policy in POLICIES:
            assert scheduler.place([], policy=policy) == []

    def test_decisions_in_another_fleet_order_rejected(
        self, trained, scheduler, batch
    ):
        """Estimates are read by fleet position: a decision from the
        reversed fleet cannot be placed by the forward fleet's scheduler."""
        service = trained.decisions
        backward = DecisionService(
            service.predictor,
            Fleet(tuple(reversed(trained.fleet.devices))),
            predictor_name=service.predictor_name,
            metric=service.metric,
        )
        backward.overhead_ms = service.overhead_ms
        decisions = backward.decide_batch(batch)
        for policy in POLICIES:
            with pytest.raises(ValueError, match="not this scheduler's fleet"):
                scheduler.place(decisions, policy=policy)


class TestSolo:
    def test_serial_execution_on_chosen_devices(self, scheduler, decisions):
        placements = scheduler.place(decisions, policy="solo")
        clock = 0.0
        for placement in placements:
            assert placement.deployed is placement.decision.chosen
            assert not placement.overridden
            assert placement.start_ms == clock
            clock = placement.finish_ms
        # Serial: the makespan is exactly the sum of chosen-device times.
        total = sum(p.decision.chosen.time_ms for p in placements)
        assert _makespan(placements) == pytest.approx(total)


class TestFleetPolicies:
    @pytest.mark.parametrize("policy", ["load-aware", "makespan"])
    def test_makespan_bounded_by_serial_sum(self, scheduler, decisions, policy):
        serial = sum(d.chosen.time_ms for d in decisions)
        placements = scheduler.place(decisions, policy=policy)
        assert _makespan(placements) <= serial + 1e-9

    @pytest.mark.parametrize("policy", ["load-aware", "makespan"])
    def test_deployments_come_from_the_decision(self, scheduler, decisions, policy):
        for placement in scheduler.place(decisions, policy=policy):
            assert placement.deployed in (
                placement.decision.chosen,
                placement.decision.other,
            )

    @pytest.mark.parametrize("policy", ["load-aware", "makespan"])
    def test_per_device_queues_never_overlap(self, scheduler, decisions, policy):
        placements = scheduler.place(decisions, policy=policy)
        by_device: dict[str, list] = {}
        for placement in placements:
            by_device.setdefault(placement.deployed.spec.name, []).append(placement)
        for queue in by_device.values():
            queue.sort(key=lambda p: p.start_ms)
            for earlier, later in zip(queue, queue[1:]):
                assert later.start_ms >= earlier.finish_ms - 1e-9

    def test_lpt_places_longest_first(self, scheduler, decisions):
        placements = scheduler.place(decisions, policy="makespan")
        longest = max(decisions, key=lambda d: d.chosen.time_ms)
        placed = next(p for p in placements if p.decision is longest)
        # LPT schedules the longest chosen-device estimate before anything
        # else, so it starts on an empty clock.
        assert placed.start_ms == 0.0

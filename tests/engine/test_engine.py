"""Engine: solo bit-identity, fleet accounting, policy payoffs."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro import obs
from repro.core.heteromap import HeteroMap
from repro.machine.fleet import synthetic_fleet
from repro.obs.config import ObsConfig
from repro.runtime.deploy import prepare_workload, run_workload
from repro.runtime.engine import Engine, Scheduler, SimulatedBackend

#: Frontier, relaxation and all-vertex kernels over small and mid
#: datasets, each twice, so an N-device fleet has real queues to balance.
FLEET_BATCH = (
    ("pagerank", "facebook"),
    ("bfs", "cage14"),
    ("sssp_bf", "usa-cal"),
    ("connected_components", "facebook"),
    ("pagerank", "cage14"),
    ("sssp_delta", "usa-cal"),
) * 2


def _fold(times) -> float:
    """Times added with += from 0.0, as the scheduler's clocks add them."""
    total = 0.0
    for time_ms in times:
        total += time_ms
    return total


def _with_time(estimate, time_ms: float):
    """``estimate`` with its result's completion time forged to ``time_ms``."""
    result = estimate.result
    cost = replace(result.cost, time_s=time_ms / 1e3)
    assert replace(result, cost=cost).time_ms == time_ms
    return replace(estimate, result=replace(result, cost=cost))


class _ForgedDecisions:
    """A decision layer that returns prepared decisions."""

    def __init__(self, service, decisions) -> None:
        self.service = service
        self.decisions = decisions

    def require_trained(self) -> float:
        return self.service.require_trained()

    def decide_batch(self, workloads):
        assert [d.workload for d in self.decisions] == list(workloads)
        return self.decisions

    def audit(self, *args) -> None:
        pass


class TestSoloBitIdentity:
    def test_run_many_solo_matches_pre_engine_path(self, trained, batch):
        """The pre-engine ``run_many`` was: one cached batched plan, then
        one serial ``run_workload`` per item.  The solo policy must
        reproduce it bit for bit: same accelerator, same config, same
        simulated result."""
        plans = trained.plan_batch(batch)
        reference = [
            (spec.name, config, run_workload(workload, spec, config))
            for workload, (spec, config) in zip(batch, plans)
        ]
        outcomes = trained.run_many(batch, policy="solo")
        assert len(outcomes) == len(reference)
        for outcome, (name, config, result) in zip(outcomes, reference):
            assert outcome.chosen_accelerator == name
            assert outcome.config == config
            assert outcome.result == result  # frozen dataclass: exact floats
            assert outcome.result.time_ms == result.time_ms
            assert outcome.completion_time_ms == result.time_ms + trained.overhead_ms

    def test_solo_is_the_default_policy(self, trained, batch):
        default = trained.run_many(batch)
        solo = trained.run_many(batch, policy="solo")
        for a, b in zip(default, solo):
            assert a.chosen_accelerator == b.chosen_accelerator
            assert a.result == b.result


class TestFleetReport:
    def test_accounting_consistency(self, trained, batch):
        report = trained.run_fleet(batch, policy="load-aware")
        assert report.policy == "load-aware"
        assert report.backend == "simulated"
        assert len(report.outcomes) == len(batch)
        assert report.makespan_ms == max(p.finish_ms for p in report.placements)
        assert report.serial_ms == _fold(
            p.decision.chosen.time_ms for p in report.placements
        )
        assert report.total_overhead_ms == pytest.approx(
            trained.overhead_ms * len(batch)
        )
        assert {d.accelerator for d in report.devices} == {
            trained.gpu.name,
            trained.multicore.name,
        }
        for device in report.devices:
            mine = [
                p
                for p in report.placements
                if p.deployed.spec.name == device.accelerator
            ]
            assert device.items == len(mine)
            assert device.busy_ms == _fold(p.deployed.time_ms for p in mine)
            assert device.idle_ms == report.makespan_ms - device.busy_ms
            assert 0.0 <= device.utilization <= 1.0 + 1e-9
        assert report.device(trained.gpu.name).accelerator == trained.gpu.name
        with pytest.raises(KeyError):
            report.device("nope")

    def test_solo_report_serial_equals_makespan(self, trained, batch):
        report = trained.run_fleet(batch, policy="solo")
        assert report.makespan_ms == report.serial_ms
        assert report.speedup == 1.0

    def test_serial_sum_folds_like_the_clocks(self, trained, batch):
        """Times on which a left fold and an exact (or compensated) sum
        differ: 1e16 + 1.0 rounds back to 1e16.  ``serial_ms`` and
        ``busy_ms`` add in placement order like the scheduler's clocks, so
        solo's makespan is still its serial sum, bit for bit."""
        decisions = trained.decisions.decide_batch(batch[:3])
        # All three on the first device, so its busy time folds them too.
        forged = [
            replace(
                decision,
                estimates=tuple(_with_time(e, time_ms) for e in decision.estimates),
                chosen_index=0,
                runner_up_index=1,
            )
            for decision, time_ms in zip(decisions, (1e16, 1.0, 1.0))
        ]
        service = _ForgedDecisions(trained.decisions, forged)
        engine = Engine(service, Scheduler(trained.fleet), SimulatedBackend())
        report = engine.run_fleet(batch[:3], policy="solo")
        assert report.makespan_ms == report.serial_ms == 1e16
        assert report.speedup == 1.0
        assert [device.busy_ms for device in report.devices] == [1e16, 0.0]

    def test_outcomes_in_input_order(self, trained, batch):
        report = trained.run_fleet(batch, policy="makespan")
        assert [o.benchmark for o in report.outcomes] == [
            w.benchmark for w in batch
        ]
        assert [o.dataset for o in report.outcomes] == [w.dataset for w in batch]

    def test_empty_batch(self, trained):
        report = trained.run_fleet([], policy="load-aware")
        assert report.outcomes == ()
        assert report.makespan_ms == 0.0
        assert report.speedup == 1.0


class TestLoadAwareBeatsSolo:
    def test_contended_batch_strictly_improves_makespan(self, trained, batch):
        """A batch whose solo-optimal choices all contend for one device:
        ``load-aware`` must spill to the idle accelerator and strictly
        beat the solo makespan."""
        # The runner-up decode keeps the predicted knob vector, so the
        # other device can be orders of magnitude slower; use the batch
        # workload with the *smallest* other/chosen ratio so the queue
        # overtakes one crossing at the fewest copies.
        decision = min(
            trained.decisions.decide_batch(batch),
            key=lambda d: d.other.time_ms / d.chosen.time_ms,
        )
        chosen_ms = decision.chosen.time_ms
        other_ms = decision.other.time_ms
        # (copies - 1) * chosen > other guarantees the greedy spills at
        # least one item to the idle accelerator.
        copies = max(3, math.ceil(other_ms / chosen_ms) + 2)
        contended = [decision.workload] * copies

        solo = trained.run_fleet(contended, policy="solo")
        fleet = trained.run_fleet(contended, policy="load-aware")
        assert solo.makespan_ms == pytest.approx(copies * chosen_ms)
        assert fleet.makespan_ms < solo.makespan_ms
        # The spill is visible in the accounting: both devices worked.
        assert all(d.items > 0 for d in fleet.devices)

    def test_mixed_batch_never_worse(self, trained, batch):
        solo = trained.run_fleet(batch, policy="solo")
        load_aware = trained.run_fleet(batch, policy="load-aware")
        assert load_aware.makespan_ms <= solo.makespan_ms
        lpt = trained.run_fleet(batch, policy="makespan")
        assert lpt.makespan_ms <= solo.makespan_ms + 1e-9

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_synthetic_fleet_mixed_batch_never_worse(self, size):
        hetero = HeteroMap(synthetic_fleet(size), predictor="cart", seed=0)
        hetero.train(num_samples=32, seed=0)
        workloads = [prepare_workload(b, d) for b, d in FLEET_BATCH]
        solo = hetero.run_fleet(workloads, policy="solo")
        load_aware = hetero.run_fleet(workloads, policy="load-aware")
        assert load_aware.makespan_ms <= solo.makespan_ms


class TestIterableInputs:
    def test_run_many_accepts_a_generator(self, trained, batch):
        from_list = trained.run_many(list(batch))
        from_gen = trained.run_many(w for w in batch)
        assert len(from_gen) == len(batch)
        for a, b in zip(from_gen, from_list):
            assert a.chosen_accelerator == b.chosen_accelerator
            assert a.result == b.result

    def test_plan_batch_accepts_a_generator(self, trained):
        items = [("pagerank", "facebook"), ("bfs", "cage14")]
        plans = trained.plan_batch(tuple(item) for item in items)
        assert len(plans) == 2

    def test_run_fleet_accepts_a_generator(self, trained, batch):
        report = trained.run_fleet((w for w in batch), policy="makespan")
        assert len(report.outcomes) == len(batch)


class TestAudits:
    def test_fleet_audits_record_deployed_device(self, trained, batch):
        obs.configure(ObsConfig(enabled=True))
        try:
            obs.state().decisions.clear()
            report = trained.run_fleet(batch, policy="load-aware")
            records = list(obs.state().decisions)
            assert len(records) == len(batch)
            for record, placement in zip(records, report.placements):
                assert record.chosen_accelerator == placement.deployed.spec.name
                assert record.runner_up_accelerator != record.chosen_accelerator
                assert record.predicted_time_ms == pytest.approx(
                    placement.deployed.time_ms
                )
        finally:
            obs.configure(ObsConfig(enabled=False))

    def test_engine_metrics_exported(self, trained, batch):
        obs.configure(ObsConfig(enabled=True))
        try:
            trained.run_fleet(batch, policy="makespan")
            snapshot = obs.prometheus_text()
            assert "engine_queue_depth" in snapshot
            assert "engine_makespan_ms" in snapshot
            assert "engine_device_utilization" in snapshot
        finally:
            obs.configure(ObsConfig(enabled=False))

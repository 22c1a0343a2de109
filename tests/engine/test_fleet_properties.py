"""Property suite for the N-device fleet generalization.

The pair→fleet lift is only safe if four properties hold (ISSUE 7):

* the N=2 fleet is **bit-identical** to the pre-fleet pair path — the
  reference implementation of that path (predict, decode onto the
  predicted device, flip the M1 bit and re-decode for the runner-up) is
  reproduced inline here and compared exactly, no tolerances;
* fleet **makespan never exceeds the serial sum** of chosen-device
  estimates, for every policy;
* decisions are **invariant under permutation** of the device list;
* adding a **strictly dominated device** never changes any decision.

The randomized versions of these properties run in the ``fleet`` fuzz
component (:mod:`repro.validation.fleet`); this suite pins the
deterministic engine-level versions on the shared trained fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import decode_config, decode_config_batch
from repro.accel.simulator import simulate
from repro.core.heteromap import HeteroMap
from repro.machine.fleet import synthetic_fleet

#: 4-device mixed fleet: two GPUs + two multicores from the registry.
FLEET_NAMES = ("gtx750ti", "gtx970", "xeonphi7120p", "cpu40core")


@pytest.fixture(scope="module")
def fleet4():
    """A trained 4-device HeteroMap (same seed as the pair fixture)."""
    hetero = HeteroMap(FLEET_NAMES, predictor="cart", seed=5)
    hetero.train(num_samples=40, seed=5)
    return hetero


@pytest.fixture(scope="module")
def fleet4_permuted():
    """The same fleet with the device list reversed."""
    hetero = HeteroMap(tuple(reversed(FLEET_NAMES)), predictor="cart", seed=5)
    hetero.train(num_samples=40, seed=5)
    return hetero


def _legacy_pair_decisions(trained, workloads):
    """The pre-fleet pair path, verbatim: predict → decode → flip-decode.

    Returns per-workload (chosen spec name, config, simulate result,
    runner-up spec name, config, simulate result) tuples — the exact
    floats the historical DecisionService produced.
    """
    service = trained.decisions
    features = service.encode(workloads)
    vectors = service.predictor.predict_batch(features)
    decoded = decode_config_batch(vectors, trained.gpu, trained.multicore)
    reference = []
    for workload, (spec, config), vector in zip(workloads, decoded, vectors):
        flipped = np.array(vector, dtype=np.float64, copy=True)
        flipped[0] = 0.0 if flipped[0] >= 0.5 else 1.0
        other_spec, other_config = decode_config(
            flipped, trained.gpu, trained.multicore
        )
        reference.append(
            (
                spec.name,
                config,
                simulate(workload.profile, spec, config),
                other_spec.name,
                other_config,
                simulate(workload.profile, other_spec, other_config),
            )
        )
    return reference


class TestPairBitIdentity:
    """The N=2 fleet must reproduce the historical pair path exactly."""

    def test_decisions_bit_identical_to_legacy_pair_path(self, trained, batch):
        reference = _legacy_pair_decisions(trained, batch)
        decisions = trained.decisions.decide_batch(batch)
        for decision, (name, config, result, o_name, o_config, o_result) in zip(
            decisions, reference
        ):
            assert decision.chosen.spec.name == name
            assert decision.chosen.config == config
            assert decision.chosen.result == result  # exact, no tolerance
            assert decision.other.spec.name == o_name
            assert decision.other.config == o_config
            assert decision.other.result == o_result

    def test_pair_decision_carries_full_cost_vector(self, trained, batch):
        decision = trained.decisions.decide(batch[0])
        assert len(decision.estimates) == 2
        assert decision.chosen_index != decision.runner_up_index
        assert len(decision.costs_ms) == 2
        assert all(cost > 0.0 for cost in decision.costs_ms)


class TestMakespanBound:
    """makespan <= serial sum of chosen-device times, every policy."""

    @pytest.mark.parametrize("policy", ["solo", "load-aware", "makespan"])
    def test_pair_fleet(self, trained, batch, policy):
        report = trained.run_fleet(batch, policy=policy)
        assert report.makespan_ms <= report.serial_ms * (1 + 1e-12)
        assert report.speedup >= 1.0 - 1e-12

    @pytest.mark.parametrize("policy", ["solo", "load-aware", "makespan"])
    def test_four_device_fleet(self, fleet4, batch, policy):
        report = fleet4.run_fleet(batch, policy=policy)
        assert report.makespan_ms <= report.serial_ms * (1 + 1e-12)


class TestPermutationInvariance:
    """Reordering the device list never changes any decision."""

    def test_decisions_identical_under_permutation(
        self, fleet4, fleet4_permuted, batch
    ):
        forward = fleet4.decisions.decide_batch(batch)
        backward = fleet4_permuted.decisions.decide_batch(batch)
        for a, b in zip(forward, backward):
            assert a.chosen.spec.name == b.chosen.spec.name
            assert a.chosen.config == b.chosen.config
            assert a.chosen.result == b.chosen.result
            assert a.other.spec.name == b.other.spec.name
            # The full cost vector is the same multiset, fleet order aside.
            assert sorted(a.costs_ms) == sorted(b.costs_ms)

    def test_fleet_identities_permutation_invariant(
        self, fleet4, fleet4_permuted
    ):
        assert fleet4.fleet.fingerprint == fleet4_permuted.fleet.fingerprint
        assert fleet4.gpu.name == fleet4_permuted.gpu.name
        assert fleet4.multicore.name == fleet4_permuted.multicore.name


class TestDominatedDevice:
    """A strictly slower clone of a fleet member never wins a decision."""

    @pytest.fixture(scope="class")
    def with_dominated(self):
        # synthetic_fleet(5) = the four registry machines + a derated
        # (strictly slower clocks/bandwidths) gtx750ti-g2 clone.
        fleet = synthetic_fleet(5)
        assert fleet.names[4] == "gtx750ti-g2"
        hetero = HeteroMap(fleet, predictor="cart", seed=5)
        hetero.train(num_samples=40, seed=5)
        return hetero

    def test_decisions_unchanged_by_dominated_device(
        self, fleet4, with_dominated, batch
    ):
        baseline = fleet4.decisions.decide_batch(batch)
        extended = with_dominated.decisions.decide_batch(batch)
        for a, b in zip(baseline, extended):
            assert b.chosen.spec.name == a.chosen.spec.name
            assert b.chosen.config == a.chosen.config
            assert b.chosen.result == a.chosen.result
            # The dominated clone still shows up in the cost vector.
            assert len(b.estimates) == len(a.estimates) + 1

    def test_dominated_device_is_strictly_slower(self, with_dominated, batch):
        decisions = with_dominated.decisions.decide_batch(batch)
        for decision in decisions:
            original = decision.estimate_for("gtx750ti")
            derated = decision.estimate_for("gtx750ti-g2")
            assert derated.time_ms > original.time_ms


class TestFleetEndToEnd:
    """N=4 decide → schedule → FleetReport, per-device accounting."""

    def test_run_fleet_reports_every_device(self, fleet4, batch):
        report = fleet4.run_fleet(batch, policy="makespan")
        assert len(report.devices) == 4
        assert {d.accelerator for d in report.devices} == set(FLEET_NAMES)
        assert sum(d.items for d in report.devices) == len(batch)
        for device in report.devices:
            assert 0.0 <= device.utilization <= 1.0 + 1e-12
            assert device.busy_ms + device.idle_ms == pytest.approx(
                report.makespan_ms
            )
        assert len(report.outcomes) == len(batch)
        assert report.total_overhead_ms > 0.0

    def test_load_aware_uses_extra_devices_under_load(self, fleet4, batch):
        # A duplicated batch creates enough queue pressure that the
        # greedy policy spreads work beyond the two primaries.
        report = fleet4.run_fleet(list(batch) * 4, policy="load-aware")
        used = [d for d in report.devices if d.items > 0]
        assert len(used) >= 2
        assert report.speedup >= 1.0 - 1e-12

    def test_overrides_recorded_when_scheduler_disagrees(self, fleet4, batch):
        report = fleet4.run_fleet(list(batch) * 4, policy="load-aware")
        for placement in report.placements:
            deployed = placement.deployed.spec.name
            if placement.overridden:
                assert deployed != placement.decision.chosen.spec.name
            else:
                assert deployed == placement.decision.chosen.spec.name

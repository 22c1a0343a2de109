"""Execution layer: the backend protocol and the built-in backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.accel.simulator import simulate
from repro.core.heteromap import HeteroMap
from repro.core.online import DriftInjectedBackend
from repro.machine.fleet import synthetic_fleet
from repro.runtime.deploy import prepare_workload, run_workload
from repro.runtime.engine import (
    ExecutionBackend,
    SimulatedBackend,
    StreamingBackend,
    execution,
)
from repro.runtime.streaming import streaming_sssp_bf
from repro.graph.datasets import load_proxy_graph

POLICIES = ("solo", "load-aware", "makespan")


@pytest.fixture(scope="module")
def fleet4():
    """A trained CART map on ``synthetic_fleet(4)``: two devices per kind."""
    hetero = HeteroMap(synthetic_fleet(4), predictor="cart", seed=5)
    hetero.train(num_samples=40, seed=5)
    return hetero


@pytest.fixture(params=["pair", "fleet4"])
def hetero(request, trained, fleet4):
    """The trained ``DEFAULT_PAIR`` map, then the four-device one."""
    return trained if request.param == "pair" else fleet4


@pytest.fixture
def obs_on():
    state = obs.configure(obs.ObsConfig(enabled=True))
    yield state
    obs.reset()


class CountingBackend(SimulatedBackend):
    """Delegating backend that records every executed deployment."""

    name = "counting"

    def __init__(self) -> None:
        self.calls: list[tuple[str, str]] = []

    def execute(self, workload, spec, config, *, estimate=None):
        self.calls.append((workload.benchmark, spec.name))
        return super().execute(workload, spec, config, estimate=estimate)


class TestProtocol:
    def test_builtins_satisfy_protocol(self):
        assert isinstance(SimulatedBackend(), ExecutionBackend)
        assert isinstance(StreamingBackend(), ExecutionBackend)
        assert isinstance(CountingBackend(), ExecutionBackend)

    def test_simulated_backend_is_run_workload(self, trained, batch):
        workload = batch[0]
        spec, config = trained.predict(workload)
        backend = SimulatedBackend()
        assert backend.execute(workload, spec, config) == run_workload(
            workload, spec, config
        )


class TestInjectedBackend:
    def test_engine_routes_through_custom_backend(self):
        backend = CountingBackend()
        hetero = HeteroMap.with_default_pair(
            predictor="decision_tree", backend=backend
        )
        hetero.train(num_samples=1, seed=0)
        items = [("pagerank", "facebook"), ("bfs", "cage14")]
        outcomes = hetero.run_many(items)
        assert [call[0] for call in backend.calls] == ["pagerank", "bfs"]
        assert [o.chosen_accelerator for o in outcomes] == [
            call[1] for call in backend.calls
        ]
        # The single-workload path uses the same backend.
        hetero.run("dfs", "facebook")
        assert backend.calls[-1][0] == "dfs"


class TestStreamingBackend:
    def test_budget_validated(self):
        with pytest.raises(ValueError):
            StreamingBackend(budget_bytes=0)

    def test_result_matches_simulated(self, trained):
        workload = prepare_workload("sssp_bf", "usa-cal")
        spec, config = trained.predict(workload)
        simulated = SimulatedBackend().execute(workload, spec, config)
        streamed = StreamingBackend(budget_bytes=1 << 16).execute(
            workload, spec, config
        )
        assert streamed == simulated

    def test_streamed_output_converges(self):
        """The chunked pass the backend runs matches whole-graph SSSP."""
        graph = load_proxy_graph("usa-cal")
        whole = streaming_sssp_bf(graph, budget_bytes=1 << 30)
        chunked = streaming_sssp_bf(graph, budget_bytes=1 << 14)
        assert chunked.num_chunks > whole.num_chunks
        np.testing.assert_allclose(chunked.output, whole.output)

    def test_non_streaming_kernels_skip_the_pass(self, trained):
        workload = prepare_workload("pagerank", "facebook")
        spec, config = trained.predict(workload)
        backend = StreamingBackend(budget_bytes=1 << 16)
        assert workload.benchmark not in backend.STREAMING_KERNELS
        assert backend.execute(workload, spec, config) == SimulatedBackend().execute(
            workload, spec, config
        )


class TestExecutionReusesEstimate:
    """The engine hands each placement's estimate to the backend, which a
    simulating backend returns instead of simulating the deployment again."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_outcomes_equal_simulate(self, hetero, batch, policy):
        # Three copies contend, so load-aware also runs non-chosen devices.
        report = hetero.run_fleet(list(batch) * 3, policy=policy)
        for outcome, placement in zip(report.outcomes, report.placements):
            deployed = placement.deployed
            assert outcome.result is deployed.result
            assert outcome.result == simulate(
                placement.decision.workload.profile, deployed.spec, deployed.config
            )

    def test_runs_counted_once_per_executed_placement(self, fleet4, batch, obs_on):
        """``deploy.runs`` and ``deploy.simulated_time_ms`` count each executed
        placement, as when execution simulated it; decide-tier estimates
        count nothing."""
        fleet4.decisions.decide_batch(batch)
        assert "deploy.runs" not in obs_on.metrics.counters
        report = fleet4.run_fleet(batch[:3], policy="load-aware")
        for device in report.devices:
            runs = obs_on.metrics.counter_value(
                "deploy.runs", accelerator=device.accelerator
            )
            assert runs == device.items
        times = obs_on.metrics.histograms["deploy.simulated_time_ms"]
        assert sum(histogram.count for histogram in times.values()) == 3

    def test_drift_still_scales_executed_results(self, fleet4, batch):
        """A drift-injected backend scales the estimate it is handed, and
        the decisions' own estimates stay unscaled."""
        start_after = 4
        backend = DriftInjectedBackend(
            SimulatedBackend(), factor=4.0, start_after=start_after, kind="gpu"
        )
        engine = fleet4.engine
        saved, engine.backend = engine.backend, backend
        try:
            report = fleet4.run_fleet(list(batch) * 3, policy="load-aware")
        finally:
            engine.backend = saved
        assert any(p.deployed.spec.is_gpu for p in report.placements[start_after:])
        for index, (outcome, placement) in enumerate(
            zip(report.outcomes, report.placements)
        ):
            deployed = placement.deployed
            assert deployed.result == simulate(
                placement.decision.workload.profile, deployed.spec, deployed.config
            )
            drifting = index >= start_after and deployed.spec.is_gpu
            factor = 4.0 if drifting else 1.0
            assert outcome.result.time_ms == deployed.result.time_ms * factor
            assert outcome.result.energy_j == deployed.result.energy_j * factor

    def test_streaming_pass_runs_with_an_estimate(self, trained, monkeypatch):
        streamed = []

        def counting(graph, budget_bytes):
            streamed.append(budget_bytes)
            return streaming_sssp_bf(graph, budget_bytes)

        monkeypatch.setattr(execution, "streaming_sssp_bf", counting)
        workload = prepare_workload("sssp_bf", "usa-cal")
        decision = trained.decisions.decide(workload)
        backend = StreamingBackend(budget_bytes=1 << 16)
        result = backend.execute(
            workload, decision.spec, decision.config, estimate=decision.chosen.result
        )
        assert streamed == [1 << 16]
        assert result is decision.chosen.result

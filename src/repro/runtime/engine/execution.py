"""Execution layer: placements in, simulated results out.

:class:`ExecutionBackend` is the protocol the engine drains device
queues through; anything with an ``execute(workload, spec, config, *,
estimate=None)`` returning a
:class:`~repro.accel.simulator.SimulationResult` plugs in (tests inject
fakes to count calls or forge times).  ``estimate`` is the decision
layer's cost-model result for the placed deployment, which equals
:func:`~repro.accel.simulator.simulate` on it exactly; the engine passes
it so a simulating backend need not cost the deployment a second time.

Two built-ins:

* :class:`SimulatedBackend` — the default: the paper's cost-model
  simulation of the deployment, which is the estimate when one is given
  and :func:`repro.runtime.deploy.run_workload` otherwise.
* :class:`StreamingBackend` — the same simulation, but for kernels with
  a chunked streaming implementation it additionally runs the
  Section II spatiotemporal path on the dataset's proxy graph, so
  memory-exceeding deployments exercise real chunk transfers (counted
  through ``repro.obs``) rather than only the cost model's streaming
  term.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro import obs
from repro.accel.simulator import SimulationResult
from repro.graph.datasets import load_proxy_graph
from repro.machine.mvars import MachineConfig
from repro.machine.specs import AcceleratorSpec
from repro.runtime.deploy import Workload, record_run, run_workload
from repro.runtime.streaming import streaming_sssp_bf

__all__ = ["ExecutionBackend", "SimulatedBackend", "StreamingBackend"]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the engine needs to run one placed deployment."""

    name: str

    def execute(
        self,
        workload: Workload,
        spec: AcceleratorSpec,
        config: MachineConfig,
        *,
        estimate: SimulationResult | None = None,
    ) -> SimulationResult:
        """Run ``workload`` on ``spec`` under ``config``.

        ``estimate``, when given, is the cost model's exact result for
        this deployment: a simulating backend may return it, a backend
        that really executes ignores it.
        """
        ...  # pragma: no cover - protocol


class SimulatedBackend:
    """Default backend: the cost-model simulation of the deployment."""

    name = "simulated"

    def execute(
        self,
        workload: Workload,
        spec: AcceleratorSpec,
        config: MachineConfig,
        *,
        estimate: SimulationResult | None = None,
    ) -> SimulationResult:
        if estimate is None:
            return run_workload(workload, spec, config)
        return record_run(spec, estimate)


class StreamingBackend(SimulatedBackend):
    """Simulation plus a functional chunked-streaming pass.

    Kernels in :data:`STREAMING_KERNELS` re-run on the dataset's proxy
    graph with the edge set streamed through a ``budget_bytes`` device
    memory window — the correctness half of the Section II streaming
    story.  The reported result stays the cost-model simulation, so
    outcomes are comparable across backends.
    """

    name = "streaming"

    #: Kernels with a chunk-streamed implementation.
    STREAMING_KERNELS = frozenset({"sssp_bf"})

    def __init__(self, budget_bytes: int = 1 << 20) -> None:
        if budget_bytes <= 0:
            raise ValueError(
                f"streaming budget must be positive, got {budget_bytes}"
            )
        self.budget_bytes = int(budget_bytes)

    def execute(
        self,
        workload: Workload,
        spec: AcceleratorSpec,
        config: MachineConfig,
        *,
        estimate: SimulationResult | None = None,
    ) -> SimulationResult:
        result = super().execute(workload, spec, config, estimate=estimate)
        if workload.benchmark in self.STREAMING_KERNELS:
            graph = load_proxy_graph(workload.dataset)
            streamed = streaming_sssp_bf(graph, self.budget_bytes)
            if obs.enabled():
                obs.counter("engine.streamed_runs", benchmark=workload.benchmark)
                obs.histogram("engine.streamed_chunk_loads", streamed.chunk_loads)
        return result

"""The engine: decision → placement → execution, composed.

:class:`Engine` wires the three layers together: the
:class:`~repro.runtime.engine.decision.DecisionService` prices every
workload on every fleet device, the
:class:`~repro.runtime.engine.scheduler.Scheduler` places the batch on
simulated per-device clocks under the requested policy, and the
:class:`~repro.runtime.engine.execution.ExecutionBackend` drains the N
device queues (the clocks model them draining *concurrently*; execution
itself is deterministic simulation, so drain order is irrelevant to the
results).  The batch-level accounting — per-device busy/idle time and
utilization, the fleet makespan, and the serial (solo) baseline — comes
back as a :class:`~repro.runtime.engine.contracts.FleetReport`.

:meth:`Engine.run_fleet` is the one loop that executes placements,
audits them and builds their outcomes.  ``HeteroMap.run_workload`` and
the async server's run mode are its ``solo`` runs, and
``HeteroMap.run_many`` keeps only the outcomes of a run under any
policy.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

from repro import obs
from repro.runtime.deploy import Workload
from repro.runtime.engine.contracts import (
    DeviceReport,
    FleetReport,
    Placement,
    RunOutcome,
)
from repro.runtime.engine.decision import DecisionService
from repro.runtime.engine.execution import ExecutionBackend, SimulatedBackend
from repro.runtime.engine.scheduler import Scheduler

__all__ = ["Engine"]


class Engine:
    """Fleet-level runner over one decision service, scheduler, backend."""

    def __init__(
        self,
        decisions: DecisionService,
        scheduler: Scheduler,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.decisions = decisions
        self.scheduler = scheduler
        self.backend: ExecutionBackend = backend or SimulatedBackend()

    def run_fleet(
        self, workloads: Sequence[Workload], *, policy: str = "solo"
    ) -> FleetReport:
        """Decide, place, and execute a batch under one policy.

        Raises:
            NotTrainedError: before the predictor is trained.
            ValueError: for an unknown policy.
        """
        overhead_ms = self.decisions.require_trained()
        # One trace per workload: adopt the caller's request scope when it
        # is row-aligned (the async server's flush), otherwise mint fresh
        # ids so offline fleet runs are traceable end to end too.
        contexts: tuple[obs.TraceContext, ...] = ()
        if obs.enabled():
            contexts = obs.active_traces()
            if len(contexts) != len(workloads):
                contexts = tuple(obs.mint_trace() for _ in workloads)
        with obs.trace_scope(contexts), obs.span(
            "engine.run_fleet", policy=policy, batch=len(workloads)
        ) as span:
            decisions = self.decisions.decide_batch(list(workloads))
            placements = self.scheduler.place(decisions, policy=policy)
            outcomes = []
            for placement in placements:  # input order: audits line up
                deployed = placement.deployed
                result = self._execute(placement, contexts)
                outcomes.append(
                    RunOutcome.from_execution(
                        placement.decision.workload,
                        deployed.spec,
                        deployed.config,
                        result,
                        overhead_ms,
                    )
                )
            report = self._report(
                policy, placements, outcomes, overhead_ms
            )
            span.set(
                makespan_ms=round(report.makespan_ms, 3),
                chosen=",".join(
                    sorted({o.chosen_accelerator for o in outcomes})
                ),
            )
            if obs.enabled():
                for device in report.devices:
                    obs.gauge(
                        "engine.device_utilization",
                        device.utilization,
                        device=device.accelerator,
                        policy=policy,
                    )
        return report

    def _execute(self, placement, contexts):
        """Run one placement under its request trace (if any) and audit it."""
        deployed = placement.deployed
        context = (
            contexts[placement.order]
            if placement.order < len(contexts)
            else None
        )
        # trace_scope((None,)) would clear the batch scope, so a row
        # without a context keeps it.
        scope = (
            obs.trace_scope((context,))
            if context is not None
            else nullcontext()
        )
        with scope:
            with obs.span(
                "backend.execute",
                device=deployed.spec.name,
                backend=self.backend.name,
            ):
                result = self.backend.execute(
                    placement.decision.workload,
                    deployed.spec,
                    deployed.config,
                    estimate=deployed.result,
                )
            # Also with obs off: audit() feeds the attached online adapter.
            self.decisions.audit(
                placement.decision, deployed.spec, deployed.config, result
            )
        return result

    def _report(
        self,
        policy: str,
        placements: "list[Placement]",
        outcomes: "list[RunOutcome]",
        overhead_ms: float,
    ) -> FleetReport:
        makespan = max((p.finish_ms for p in placements), default=0.0)
        # Times add with += in placement order, as the scheduler's clocks
        # do: Python 3.12's float sum() is compensated and would round
        # differently (solo's makespan could then exceed its serial sum).
        devices = []
        for spec in self.scheduler.fleet.devices:
            mine = [p for p in placements if p.deployed.spec.name == spec.name]
            busy = 0.0
            for placement in mine:
                busy += placement.deployed.time_ms
            devices.append(
                DeviceReport(
                    accelerator=spec.name,
                    items=len(mine),
                    busy_ms=busy,
                    idle_ms=max(0.0, makespan - busy),
                    utilization=busy / makespan if makespan > 0 else 0.0,
                )
            )
        serial = 0.0
        for placement in placements:
            serial += placement.decision.chosen.time_ms
        return FleetReport(
            policy=policy,
            backend=self.backend.name,
            outcomes=tuple(outcomes),
            placements=tuple(placements),
            devices=tuple(devices),
            makespan_ms=makespan,
            serial_ms=serial,
            total_overhead_ms=overhead_ms * len(placements),
        )

"""Placement layer: fleet-aware scheduling of decisions onto N devices.

The scheduler turns a batch of fleet-costed
:class:`~repro.runtime.engine.contracts.Decision`\\ s into
:class:`~repro.runtime.engine.contracts.Placement`\\ s on simulated
per-device clocks (:class:`DeviceState`), one clock per fleet device.
Three pluggable policies:

* ``solo`` — the pre-engine behavior, bit-identical outcomes: every
  workload deploys on its predictor-chosen device and the batch executes
  strictly serially (one global clock), so the fleet's second device
  idles exactly as ``run_many`` always modeled it.
* ``load-aware`` — online greedy earliest-finish: each workload (in
  arrival order) lands on whichever device finishes it soonest given the
  device's current ``busy_until`` clock and the decision's per-device
  estimate.  Ties prefer the predictor's choice.
* ``makespan`` — offline longest-processing-time-first: the batch is
  sorted by descending chosen-device estimate, then placed greedily
  earliest-finish — the classic N-machine LPT heuristic, which needs the
  whole batch up front but tightens the makespan bound.

Both fleet policies satisfy ``makespan <= serial sum of chosen-device
times``: each greedy step finishes no later than the chosen device's
serial schedule would have (pinned by the engine test suite).  All
policies are deterministic for a fixed batch order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.machine.fleet import Fleet
from repro.machine.specs import AcceleratorSpec
from repro.runtime.engine.contracts import Decision, DeviceEstimate, Placement

__all__ = ["POLICIES", "DeviceState", "Scheduler"]

#: Placement policies, in documentation order.
POLICIES = ("solo", "load-aware", "makespan")


@dataclass
class DeviceState:
    """One device's simulated queue clock during placement."""

    spec: AcceleratorSpec
    busy_until_ms: float = 0.0  # when the device next goes idle
    busy_ms: float = 0.0  # summed on-accelerator time
    items: int = 0  # queue depth: placements assigned so far

    def assign(
        self, estimate: DeviceEstimate, *, not_before_ms: float = 0.0
    ) -> tuple[float, float]:
        """Queue one deployment; returns its (start, finish) times."""
        start = max(self.busy_until_ms, not_before_ms)
        finish = start + estimate.time_ms
        self.busy_until_ms = finish
        self.busy_ms += estimate.time_ms
        self.items += 1
        return start, finish


class Scheduler:
    """Pluggable placement policies over an N-device fleet."""

    def __init__(self, fleet: Fleet) -> None:
        self.fleet = fleet

    def place(
        self, decisions: "list[Decision]", *, policy: str = "solo"
    ) -> list[Placement]:
        """Schedule a batch under one policy; placements in input order.

        Raises:
            ValueError: for a policy outside :data:`POLICIES`.
        """
        with obs.span(
            "scheduler.place", policy=policy, batch=len(decisions)
        ):
            return self._place(decisions, policy)

    def _place(
        self, decisions: "list[Decision]", policy: str
    ) -> list[Placement]:
        if policy == "solo":
            placements = self._place_solo(decisions)
        elif policy == "load-aware":
            placements = self._place_greedy(decisions, order=range(len(decisions)))
        elif policy == "makespan":
            # LPT: longest chosen-device estimate first, index as the
            # deterministic tie-break.
            order = sorted(
                range(len(decisions)),
                key=lambda i: (-decisions[i].chosen.time_ms, i),
            )
            placements = self._place_greedy(decisions, order=order)
        else:
            raise ValueError(
                f"unknown scheduler policy {policy!r}; known: {POLICIES}"
            )
        self._export(placements, policy)
        return placements

    # -- policies ----------------------------------------------------------

    def _states(self) -> dict[str, DeviceState]:
        return {spec.name: DeviceState(spec) for spec in self.fleet.devices}

    def _place_solo(self, decisions: "list[Decision]") -> list[Placement]:
        states = self._states()
        placements = []
        clock = 0.0  # serial execution: one workload at a time, fleet-wide
        for index, decision in enumerate(decisions):
            estimate = decision.chosen
            start, finish = states[estimate.spec.name].assign(
                estimate, not_before_ms=clock
            )
            clock = finish
            placements.append(
                Placement(
                    decision=decision,
                    deployed=estimate,
                    order=index,
                    start_ms=start,
                    finish_ms=finish,
                )
            )
        return placements

    def _place_greedy(
        self, decisions: "list[Decision]", *, order
    ) -> list[Placement]:
        """Earliest-finish placement over ``order``; returns input order."""
        states = self._states()
        placements: list[Placement | None] = [None] * len(decisions)
        for index in order:
            decision = decisions[index]
            best: tuple[float, int, DeviceState, DeviceEstimate] | None = None
            for rank, state in enumerate(states.values()):
                estimate = decision.estimate_for(state.spec.name)
                finish = state.busy_until_ms + estimate.time_ms
                # Tie-break: the predictor's chosen device wins, then the
                # iteration rank keeps the result order-independent of
                # float noise.
                chosen_rank = 0 if estimate is decision.chosen else 1
                candidate = (finish, chosen_rank, rank)
                if best is None or candidate < best[:3]:
                    best = (*candidate, state, estimate)  # type: ignore[assignment]
            assert best is not None
            _, _, _, state, estimate = best
            start, finish = state.assign(estimate)
            placements[index] = Placement(
                decision=decision,
                deployed=estimate,
                order=index,
                start_ms=start,
                finish_ms=finish,
            )
        return [p for p in placements if p is not None]

    # -- observability -----------------------------------------------------

    def _export(self, placements: "list[Placement]", policy: str) -> None:
        if not obs.enabled():
            return
        depths = {name: 0 for name in self.fleet.names}
        overrides = 0
        for placement in placements:
            depths[placement.deployed.spec.name] += 1
            overrides += placement.overridden
        for device, depth in depths.items():
            obs.gauge("engine.queue_depth", depth, device=device, policy=policy)
        makespan = max((p.finish_ms for p in placements), default=0.0)
        obs.histogram("engine.makespan_ms", makespan, policy=policy)
        obs.counter("engine.placements", len(placements), policy=policy)
        if overrides:
            obs.counter("engine.placement_overrides", overrides, policy=policy)

"""Placement layer: fleet-aware scheduling of decisions onto N devices.

The scheduler turns a batch of fleet-costed
:class:`~repro.runtime.engine.contracts.Decision`\\ s into
:class:`~repro.runtime.engine.contracts.Placement`\\ s on simulated
per-device clocks, one float per fleet device: the time it next goes
idle.  Three pluggable policies:

* ``solo`` — the pre-engine behavior, bit-identical outcomes: every
  workload deploys on its predictor-chosen device and the batch executes
  strictly serially (one global clock), so the fleet's second device
  idles exactly as ``run_many`` always modeled it.
* ``load-aware`` — online greedy earliest-finish: each workload (in
  arrival order) lands on whichever device finishes it soonest given the
  device's clock and the decision's per-device estimate.  Ties prefer the
  predictor's choice.
* ``makespan`` — offline longest-processing-time-first: the batch is
  sorted by descending chosen-device estimate, then placed greedily
  earliest-finish — the classic N-machine LPT heuristic, which needs the
  whole batch up front but tightens the makespan bound.

Both fleet policies satisfy ``makespan <= serial sum of chosen-device
times``: each greedy step finishes no later than the chosen device's
serial schedule would have (pinned by the engine test suite).  All
policies are deterministic for a fixed batch order.

Estimates are read by fleet position: the decision layer and the
scheduler take their device order from one :class:`~repro.machine.fleet.Fleet`.
"""

from __future__ import annotations

from repro import obs
from repro.machine.fleet import Fleet
from repro.machine.specs import AcceleratorSpec
from repro.runtime.engine.contracts import Decision, Placement

__all__ = ["POLICIES", "Scheduler"]

#: Placement policies, in documentation order.
POLICIES = ("solo", "load-aware", "makespan")


def _misaligned(
    decision: Decision, devices: "tuple[AcceleratorSpec, ...]"
) -> ValueError:
    """The error for a decision whose estimates are not the scheduler's
    devices in the scheduler's order."""
    return ValueError(
        f"decision estimates {[e.spec.name for e in decision.estimates]} are "
        f"not this scheduler's fleet {[spec.name for spec in devices]}, in order"
    )


class Scheduler:
    """Pluggable placement policies over an N-device fleet."""

    def __init__(self, fleet: Fleet) -> None:
        self.fleet = fleet

    def place(
        self, decisions: "list[Decision]", *, policy: str = "solo"
    ) -> list[Placement]:
        """Schedule a batch under one policy; placements in input order.

        Raises:
            ValueError: for a policy outside :data:`POLICIES`, or for a
                decision whose estimates are not this fleet's devices in
                fleet order.
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

    def _place_solo(self, decisions: "list[Decision]") -> list[Placement]:
        devices = self.fleet.devices
        placements = []
        # Serial execution, one workload at a time fleet-wide: one clock
        # serves every device.
        finish = 0.0
        for index, decision in enumerate(decisions):
            chosen = decision.chosen_index
            estimate = decision.estimates[chosen]
            if (
                len(decision.estimates) != len(devices)
                or estimate.spec is not devices[chosen]
            ):
                raise _misaligned(decision, devices)
            start, finish = finish, finish + decision.costs_ms[chosen]
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
        devices = self.fleet.devices
        busy_until = [0.0] * len(devices)  # when each device next goes idle
        placements: list[Placement | None] = [None] * len(decisions)
        for index in order:
            decision = decisions[index]
            estimates = decision.estimates
            if len(estimates) != len(devices):
                raise _misaligned(decision, devices)
            costs = decision.costs_ms
            chosen = decision.chosen_index
            best: tuple[float, bool, int] | None = None
            for rank, spec in enumerate(devices):
                if estimates[rank].spec is not spec:
                    raise _misaligned(decision, devices)
                # Tie-break: the predictor's chosen device wins, then the
                # rank keeps the result order-independent of float noise.
                candidate = (busy_until[rank] + costs[rank], rank != chosen, rank)
                if best is None or candidate < best:
                    best = candidate
            assert best is not None
            finish, _, rank = best
            start, busy_until[rank] = busy_until[rank], finish
            placements[index] = Placement(
                decision=decision,
                deployed=estimates[rank],
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

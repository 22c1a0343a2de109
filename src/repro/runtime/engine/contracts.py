"""The engine's layer contract: ``Workload → Decision → Placement → Outcome``.

Each layer of :mod:`repro.runtime.engine` speaks to its neighbours only
through the frozen dataclasses here:

* the **decision layer** turns a :class:`~repro.runtime.deploy.Workload`
  into a :class:`Decision` — the predictor's chosen deployment *plus*
  the model-costed :class:`DeviceEstimate` for **every** device in the
  fleet (each device decodes the same predicted knob vector with its own
  architectural parameters; on the two-device fleet this is exactly the
  historical "flip the M1 bit" runner-up);
* the **placement layer** turns decisions into :class:`Placement`\\ s —
  a concrete (device, config) assignment with simulated start/finish
  times on per-device clocks;
* the **execution layer** turns placements into
  :class:`RunOutcome`\\ s and aggregates the batch into a
  :class:`FleetReport` with per-device utilization and the makespan.

Keeping the contract in one dependency-light module lets every layer be
swapped (new policies, new backends) without touching the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.accel.simulator import SimulationResult
from repro.machine.mvars import MachineConfig
from repro.machine.specs import AcceleratorSpec
from repro.runtime.deploy import Workload

__all__ = [
    "Decision",
    "DeviceEstimate",
    "DeviceReport",
    "FleetReport",
    "Placement",
    "RunOutcome",
]


@dataclass(frozen=True)
class DeviceEstimate:
    """One costed deployment option: a device, its config, its estimate."""

    spec: AcceleratorSpec
    config: MachineConfig
    result: SimulationResult  # cost-model estimate of this deployment

    @property
    def time_ms(self) -> float:
        """Estimated on-accelerator completion time in milliseconds."""
        return self.result.time_ms

    @property
    def energy_j(self) -> float:
        """Estimated energy of this deployment in joules."""
        return self.result.energy_j


@dataclass(frozen=True)
class Decision:
    """The decision layer's verdict for one workload.

    ``estimates`` is the full per-device cost vector, fleet order: the
    predicted knob vector decoded onto *every* device in the fleet and
    costed by the model.  ``chosen_index`` points at the deployment the
    decision layer picked (the predictor's M1 kind, then argmin within
    it); ``runner_up_index`` at the next-best alternative.  Carrying the
    whole vector is what lets the placement layer trade the chosen
    device against any other one when the fleet is contended — on the
    two-device fleet this degenerates exactly to the historical
    chosen/other pair, which the compatibility properties expose.
    """

    workload: Workload
    estimates: tuple[DeviceEstimate, ...]  # per-device options, fleet order
    chosen_index: int
    runner_up_index: int
    vector: np.ndarray  # read-only predicted M target vector
    features: tuple[float, ...]  # the 17 (B, I) inputs, B1..B13 then I1..I4
    #: Calibrated confidence of the predictor's M1 call for this row
    #: (``None`` when the decision layer has neither an exploration
    #: policy nor an online adapter attached, so nothing computes it).
    confidence: float | None = None
    #: True when the exploration policy flagged this decision as a
    #: low-confidence probe (costed on every device and audited as an
    #: exploration record rather than a placement).
    explored: bool = False

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=np.float64, copy=True)
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)
        estimates = tuple(self.estimates)
        object.__setattr__(self, "estimates", estimates)
        if not estimates:
            raise ValueError("a Decision needs at least one device estimate")
        for label, index in (
            ("chosen_index", self.chosen_index),
            ("runner_up_index", self.runner_up_index),
        ):
            if not 0 <= index < len(estimates):
                raise ValueError(
                    f"{label} {index} out of range for "
                    f"{len(estimates)} estimates"
                )

    @property
    def chosen(self) -> DeviceEstimate:
        """The deployment the decision layer picked."""
        return self.estimates[self.chosen_index]

    @property
    def other(self) -> DeviceEstimate:
        """The runner-up deployment (the opposite device on a pair)."""
        return self.estimates[self.runner_up_index]

    @property
    def spec(self) -> AcceleratorSpec:
        """The chosen accelerator."""
        return self.chosen.spec

    @property
    def config(self) -> MachineConfig:
        """The chosen machine configuration."""
        return self.chosen.config

    @cached_property
    def costs_ms(self) -> tuple[float, ...]:
        """Per-device estimated times in milliseconds, fleet order, taken
        once per decision (a cached attribute, not a field)."""
        return tuple(estimate.time_ms for estimate in self.estimates)

    def estimate_for(self, accelerator: str) -> DeviceEstimate:
        """The costed option on one device, chosen or not.

        Raises:
            KeyError: when ``accelerator`` is outside the fleet.
        """
        for estimate in self.estimates:
            if estimate.spec.name == accelerator:
                return estimate
        names = [estimate.spec.name for estimate in self.estimates]
        raise KeyError(f"{accelerator!r} is not one of {names}")


@dataclass(frozen=True)
class Placement:
    """One scheduled deployment on the simulated device clocks."""

    decision: Decision
    deployed: DeviceEstimate  # the option actually placed (chosen or other)
    order: int  # index in the input batch
    start_ms: float
    finish_ms: float

    @property
    def overridden(self) -> bool:
        """True when the scheduler placed against the predictor's choice."""
        return self.deployed.spec.name != self.decision.chosen.spec.name


@dataclass(frozen=True)
class RunOutcome:
    """Result of one HeteroMap-scheduled execution."""

    benchmark: str
    dataset: str
    chosen_accelerator: str
    config: MachineConfig
    result: SimulationResult
    predictor_overhead_ms: float

    @property
    def completion_time_ms(self) -> float:
        """On-accelerator time plus the predictor's inference overhead —
        the paper's completion-time metric."""
        return self.result.time_ms + self.predictor_overhead_ms

    @property
    def energy_j(self) -> float:
        """Energy of the deployed run in joules."""
        return self.result.energy_j

    @property
    def utilization(self) -> float:
        """Core utilization of the deployed run."""
        return self.result.utilization

    @classmethod
    def from_execution(
        cls,
        workload: Workload,
        spec: AcceleratorSpec,
        config: MachineConfig,
        result: SimulationResult,
        overhead_ms: float,
    ) -> "RunOutcome":
        """The one place an outcome is assembled from an executed run."""
        return cls(
            benchmark=workload.benchmark,
            dataset=workload.dataset,
            chosen_accelerator=spec.name,
            config=config,
            result=result,
            predictor_overhead_ms=overhead_ms,
        )


@dataclass(frozen=True)
class DeviceReport:
    """One device's share of a fleet run."""

    accelerator: str
    items: int  # queue depth: workloads placed on this device
    busy_ms: float  # summed on-accelerator time
    idle_ms: float  # makespan minus busy time
    utilization: float  # busy / makespan (0.0 for an empty fleet)


@dataclass(frozen=True)
class FleetReport:
    """What a batch cost the N-accelerator fleet under one policy."""

    policy: str
    backend: str
    outcomes: tuple[RunOutcome, ...]  # input order
    placements: tuple[Placement, ...]  # input order
    devices: tuple[DeviceReport, ...]  # fleet order
    makespan_ms: float  # latest device finish time
    serial_ms: float  # sum of chosen-device estimates: the solo baseline
    total_overhead_ms: float  # predictor inference, summed over the batch

    @property
    def speedup(self) -> float:
        """Serial (solo) time over fleet makespan; 1.0 for an empty batch."""
        if self.makespan_ms <= 0.0:
            return 1.0
        return self.serial_ms / self.makespan_ms

    def device(self, accelerator: str) -> DeviceReport:
        """Per-device report by accelerator name.

        Raises:
            KeyError: for a device outside the fleet.
        """
        for report in self.devices:
            if report.accelerator == accelerator:
                return report
        raise KeyError(f"no device {accelerator!r} in this fleet")

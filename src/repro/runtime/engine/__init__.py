"""`repro.runtime.engine` — the layered fleet runtime.

Splits the old monolithic ``HeteroMap`` run path into three layers with
a stable dataclass contract (``Workload → Decision → Placement →
Outcome``, :mod:`repro.runtime.engine.contracts`):

* **decision** (:class:`DecisionService`) — cached batched prediction,
  costed on every fleet device;
* **placement** (:class:`Scheduler`) — ``solo`` / ``load-aware`` /
  ``makespan`` policies over per-device clocks;
* **execution** (:class:`ExecutionBackend`) — pluggable deployment of
  the placed batch, reported as a :class:`FleetReport`.

``HeteroMap`` composes the three; use the pieces directly to build
custom fleets (different policies, injected backends).
"""

from repro.runtime.engine.contracts import (
    Decision,
    DeviceEstimate,
    DeviceReport,
    FleetReport,
    Placement,
    RunOutcome,
)
from repro.runtime.engine.decision import DecisionService
from repro.runtime.engine.engine import Engine
from repro.runtime.engine.execution import (
    ExecutionBackend,
    SimulatedBackend,
    StreamingBackend,
)
from repro.runtime.engine.scheduler import POLICIES, Scheduler

__all__ = [
    "Decision",
    "DecisionService",
    "DeviceEstimate",
    "DeviceReport",
    "Engine",
    "ExecutionBackend",
    "FleetReport",
    "POLICIES",
    "Placement",
    "RunOutcome",
    "Scheduler",
    "SimulatedBackend",
    "StreamingBackend",
]

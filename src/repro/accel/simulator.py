"""Top-level accelerator simulator: time + energy + utilization.

:func:`simulate` is the single entry point the runtime, tuner, and
training pipeline use to cost one deployment, and the decision layer
to cost each (workload × device) row of a decide.  It runs the cost
model's one formula, :func:`repro.accel.batch._pass`, once per phase on
Python floats, from the terms :mod:`repro.accel.batch` keeps per
(profile, spec) and per (config, spec), so a deployment costed before
takes no term again.
"""

from __future__ import annotations

from repro import obs
from repro.accel.batch import (
    SimulationResult,
    _ONE_ROW,
    _config_terms,
    _pass,
    _profile_terms,
)
from repro.accel.cost_model import PhaseCost, WorkloadCost
from repro.accel.energy import EnergyResult
from repro.machine.mvars import MachineConfig
from repro.machine.specs import AcceleratorSpec
from repro.workload.profile import WorkloadProfile

__all__ = ["SimulationResult", "simulate"]


def simulate(
    profile: WorkloadProfile,
    spec: AcceleratorSpec,
    config: MachineConfig,
) -> SimulationResult:
    """Simulate ``profile`` on ``spec`` under ``config``.

    The configuration is clamped to the machine's maxima first (the
    paper's ceiling rule), so callers may pass equation outputs directly.
    Phases fold in phase order from 0.0, as
    :func:`~repro.accel.cost_model.evaluate_cost` folds them, and the
    result equals that per-phase reference with
    :func:`~repro.accel.energy.evaluate_energy` by ``==``.
    """
    if obs.enabled():
        obs.counter("cost_model.evals", path="scalar")
        obs.counter("cost_model.configs", path="scalar")
    rows, deploy, kinds, _ = _profile_terms(profile, spec)
    config, terms, _ = _config_terms(config, spec)
    gpu = spec.is_gpu
    phase_costs = []
    time_s = busy_s = stall_s = 0.0
    for kind, row in zip(kinds, rows):
        compute, memory, sync, overhead, busy, stall = _pass(
            gpu, _ONE_ROW, row, deploy, terms
        )
        phase_costs.append(PhaseCost(kind, compute, memory, sync, overhead))
        time_s += max(compute, memory) + sync + overhead
        busy_s += busy
        stall_s += stall
    time_s += deploy.streaming
    cost = WorkloadCost(
        spec.name, tuple(phase_costs), deploy.streaming, time_s, busy_s, stall_s
    )
    power = deploy.idle_watts + terms.span_active * (0.4 + 0.6 * cost.utilization)
    energy = EnergyResult(spec.name, power, power * time_s)
    return SimulationResult(spec.name, config, cost, energy)

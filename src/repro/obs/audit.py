"""Decision-audit records: why the predictor deployed where it did.

Every scheduled execution (``HeteroMap.run_workload``) emits one
:class:`DecisionRecord` when observability is on: the (B, I) feature
inputs, the chosen accelerator and M-configuration, the model-predicted
time/energy/utilization of that deployment, and the margin over the
runner-up accelerator (the same predicted knob vector decoded onto the
*other* device).  This is the artifact a scheduler run (Figure 11) needs
to be debugged: a near-zero margin flags a coin-flip decision, a large
negative margin flags a mispredict.

The schema is frozen in :data:`DECISION_FIELDS`; the audit tests pin
``as_dict`` to it so downstream consumers (the report CLI, external
dashboards) can rely on the record shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.mvars import MachineConfig

__all__ = [
    "DECISION_FIELDS",
    "DECISION_SCHEMA_VERSION",
    "DecisionRecord",
    "config_summary",
]

#: Version of the :data:`DECISION_FIELDS` schema.  Version 1 (implicit —
#: PR 8-era records carry no ``schema_version`` key) ends at
#: ``trace_id``; version 2 appends the confidence/exploration fields.
#: Readers treat a missing key as version 1, so one stream can mix eras.
DECISION_SCHEMA_VERSION = 2

#: Frozen schema of :meth:`DecisionRecord.as_dict`.
DECISION_FIELDS = (
    "benchmark",
    "dataset",
    "predictor",
    "metric",
    "features",
    "chosen_accelerator",
    "config",
    "predicted_time_ms",
    "predicted_energy_j",
    "predicted_utilization",
    "runner_up_accelerator",
    "runner_up_time_ms",
    "margin_ms",
    "margin_pct",
    "devices",
    "costs_ms",
    "observed_time_ms",
    "trace_id",
    "confidence",
    "explored",
    "schema_version",
)


def config_summary(config: MachineConfig, *, is_gpu: bool) -> str:
    """Compact one-cell rendering of the deployed M-configuration."""
    if is_gpu:
        return (
            f"gpu(g={config.gpu_global_threads},l={config.gpu_local_threads})"
        )
    return (
        f"mc(c={config.cores},tpc={config.threads_per_core},"
        f"simd={config.simd_width},sched={config.omp_schedule.value},"
        f"chunk={config.omp_chunk})"
    )


@dataclass(frozen=True)
class DecisionRecord:
    """One audited scheduling decision."""

    benchmark: str
    dataset: str
    predictor: str
    metric: str
    features: tuple[float, ...]  # the 17 (B, I) inputs, B1..B13 then I1..I4
    chosen_accelerator: str
    config: str  # config_summary() of the deployed M-configuration
    predicted_time_ms: float
    predicted_energy_j: float
    predicted_utilization: float
    runner_up_accelerator: str
    runner_up_time_ms: float
    #: Fleet device names, fleet order — the axis ``costs_ms`` runs over.
    #: Empty for records written before the quality observatory existed.
    devices: tuple[str, ...] = ()
    #: Per-device estimated times for the predicted knob vector; together
    #: with ``devices`` this is the counterfactual the regret tracker
    #: folds (chosen-vs-oracle-argmin, chosen-vs-runner-up).
    costs_ms: tuple[float, ...] = ()
    #: Executed (backend-reported) time of the placed deployment; drift
    #: detection watches ``observed - estimate`` on the placed device.
    observed_time_ms: float | None = None
    #: Request trace the placement executed under, when one was active.
    trace_id: str | None = None
    #: Calibrated predictor confidence for this row (``None`` when the
    #: decision layer had neither an exploration policy nor an online
    #: adapter attached — including every pre-v2 record).
    confidence: float | None = None
    #: True for exploration probes: simulate-only costings of
    #: low-confidence rows that never executed.  The regret tracker
    #: counts these separately and keeps them out of the placement fold.
    explored: bool = False

    @property
    def margin_ms(self) -> float:
        """Runner-up minus chosen predicted time; positive = right call."""
        return self.runner_up_time_ms - self.predicted_time_ms

    @property
    def margin_pct(self) -> float:
        """Margin as a fraction of the chosen predicted time, in percent."""
        if self.predicted_time_ms <= 0:
            return 0.0
        return 100.0 * self.margin_ms / self.predicted_time_ms

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "dataset": self.dataset,
            "predictor": self.predictor,
            "metric": self.metric,
            "features": [round(float(f), 6) for f in self.features],
            "chosen_accelerator": self.chosen_accelerator,
            "config": self.config,
            "predicted_time_ms": self.predicted_time_ms,
            "predicted_energy_j": self.predicted_energy_j,
            "predicted_utilization": self.predicted_utilization,
            "runner_up_accelerator": self.runner_up_accelerator,
            "runner_up_time_ms": self.runner_up_time_ms,
            "margin_ms": self.margin_ms,
            "margin_pct": self.margin_pct,
            "devices": list(self.devices),
            "costs_ms": [float(c) for c in self.costs_ms],
            "observed_time_ms": (
                self.observed_time_ms
                if self.observed_time_ms is not None
                else self.predicted_time_ms
            ),
            "trace_id": self.trace_id,
            "confidence": self.confidence,
            "explored": self.explored,
            "schema_version": DECISION_SCHEMA_VERSION,
        }

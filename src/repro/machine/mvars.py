"""Machine (M) variables — Figure 3 of the paper.

Twenty choices configure the heterogeneous setup:

* **M1** accelerator selection (GPU vs multicore),
* **M2** multicore cores, **M3** threads per core,
* **M4** KMP blocktime (thread wait-before-sleep, 1–1000 ms),
* **M5–M7** thread placement (core ids / thread ids / offsets), expressed
  as a looseness fraction in [0, 1] (0 = fully compact, 1 = fully loose),
* **M8** thread affinity (0 = movable by the scheduler, 1 = strictly pinned),
* **M9** OMP dynamic adjustment, **M10** SIMD width (#pragma simd),
* **M11** OMP schedule kind, **M12** schedule chunk size,
* **M13** OMP nested, **M14** max active levels, **M15** GOMP spin-count,
* **M16** proc-bind policy, **M17** wait policy, **M18** places granularity,
* **M19** GPU global threads, **M20** GPU local (work-group) threads.

The paper details M1–M8, M19–M20 and groups M9/M11–M18 as "OpenMP
parameters ... described in the HeteroMap repository"; the assignments
above follow the OpenMP variables its Section III-A names (schedule, chunk,
nested, max-active-levels, spin-count).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from repro.errors import MachineConfigError
from repro.machine.specs import AcceleratorSpec

__all__ = [
    "OmpSchedule",
    "MachineConfig",
    "M_VARIABLE_NAMES",
    "default_config",
    "clamp_config",
    "total_threads",
]


class OmpSchedule(str, Enum):
    """OMP for-schedule kinds (M11)."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"
    AUTO = "auto"


M_VARIABLE_NAMES: dict[str, str] = {
    "M1": "accelerator selection",
    "M2": "multicore cores",
    "M3": "threads per core",
    "M4": "KMP blocktime (ms)",
    "M5": "placement: core ids",
    "M6": "placement: thread ids",
    "M7": "placement: thread offsets",
    "M8": "thread affinity",
    "M9": "OMP dynamic",
    "M10": "SIMD width",
    "M11": "OMP schedule",
    "M12": "OMP chunk size",
    "M13": "OMP nested",
    "M14": "OMP max active levels",
    "M15": "GOMP spin-count",
    "M16": "proc-bind policy",
    "M17": "wait policy",
    "M18": "places granularity",
    "M19": "GPU global threads",
    "M20": "GPU local threads",
}


@dataclass(frozen=True)
class MachineConfig:
    """A concrete assignment of the intra-accelerator M variables.

    ``accelerator`` holds the resolved M1 choice (a spec name).  GPU runs
    read M19/M20 and ignore the multicore block; multicore runs do the
    opposite — mirroring how only the selected device's knobs are deployed.
    """

    accelerator: str
    # Multicore knobs (M2-M18).
    cores: int = 1
    threads_per_core: int = 1
    blocktime_ms: float = 1.0
    placement_core: float = 0.0
    placement_thread: float = 0.0
    placement_offset: float = 0.0
    affinity: float = 0.0
    omp_dynamic: bool = False
    simd_width: int = 1
    omp_schedule: OmpSchedule = OmpSchedule.STATIC
    omp_chunk: int = 64
    omp_nested: bool = False
    omp_max_active_levels: int = 1
    omp_spincount: float = 0.0
    proc_bind_close: bool = True
    passive_wait: bool = False
    places_cores: bool = True
    # GPU knobs (M19-M20).
    gpu_global_threads: int = 1
    gpu_local_threads: int = 1

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise MachineConfigError("cores (M2) must be >= 1")
        if self.threads_per_core < 1:
            raise MachineConfigError("threads_per_core (M3) must be >= 1")
        if not 1.0 <= self.blocktime_ms <= 1000.0:
            raise MachineConfigError("blocktime (M4) must be in [1, 1000] ms")
        for label, value in (
            ("M5", self.placement_core),
            ("M6", self.placement_thread),
            ("M7", self.placement_offset),
            ("M8", self.affinity),
        ):
            if not 0.0 <= value <= 1.0:
                raise MachineConfigError(f"{label} must be in [0, 1]")
        if self.simd_width < 1:
            raise MachineConfigError("simd_width (M10) must be >= 1")
        if self.omp_chunk < 1:
            raise MachineConfigError("omp_chunk (M12) must be >= 1")
        if self.omp_max_active_levels < 1:
            raise MachineConfigError("max active levels (M14) must be >= 1")
        if self.omp_spincount < 0:
            raise MachineConfigError("spincount (M15) must be >= 0")
        if self.gpu_global_threads < 1:
            raise MachineConfigError("gpu_global_threads (M19) must be >= 1")
        if self.gpu_local_threads < 1:
            raise MachineConfigError("gpu_local_threads (M20) must be >= 1")

    @cached_property
    def cost_terms(self) -> dict:
        """This config's clamped form and cost-model terms per accelerator
        spec, filled and read by :func:`repro.accel.simulator.simulate`.

        A cached attribute, not a field, so ``==``, ``hash``, ``repr`` and
        :func:`dataclasses.replace` see only the dataclass fields.
        """
        return {}

    @property
    def placement_looseness(self) -> float:
        """Mean of the three placement fractions (M5-M7)."""
        return (
            self.placement_core + self.placement_thread + self.placement_offset
        ) / 3.0

    def as_dict(self) -> dict[str, object]:
        """M-label keyed view of the configuration (for reports)."""
        return {
            "M1": self.accelerator,
            "M2": self.cores,
            "M3": self.threads_per_core,
            "M4": self.blocktime_ms,
            "M5": self.placement_core,
            "M6": self.placement_thread,
            "M7": self.placement_offset,
            "M8": self.affinity,
            "M9": self.omp_dynamic,
            "M10": self.simd_width,
            "M11": self.omp_schedule.value,
            "M12": self.omp_chunk,
            "M13": self.omp_nested,
            "M14": self.omp_max_active_levels,
            "M15": self.omp_spincount,
            "M16": self.proc_bind_close,
            "M17": self.passive_wait,
            "M18": self.places_cores,
            "M19": self.gpu_global_threads,
            "M20": self.gpu_local_threads,
        }


def total_threads(config: MachineConfig, spec: AcceleratorSpec) -> int:
    """Worker threads the configuration deploys on ``spec``."""
    if spec.is_gpu:
        return min(config.gpu_global_threads, spec.max_threads)
    return min(config.cores * config.threads_per_core, spec.max_threads)


def default_config(spec: AcceleratorSpec) -> MachineConfig:
    """The untuned single-accelerator default: all resources, static
    schedule — what a GPU-only / multicore-only baseline deploys."""
    if spec.is_gpu:
        return MachineConfig(
            accelerator=spec.name,
            gpu_global_threads=spec.max_threads,
            gpu_local_threads=256,
        )
    return MachineConfig(
        accelerator=spec.name,
        cores=spec.cores,
        threads_per_core=spec.threads_per_core,
        simd_width=spec.simd_width,
        blocktime_ms=200.0,
    )


def clamp_config(config: MachineConfig, spec: AcceleratorSpec) -> MachineConfig:
    """Apply the paper's ceiling rule: any M value resolving beyond the
    machine's maximum is clamped to that maximum.  A config within every
    ceiling is returned as is, skipping ``replace``'s re-validation."""
    if (
        config.accelerator == spec.name
        and config.cores <= spec.cores
        and config.threads_per_core <= max(1, spec.threads_per_core)
        and config.simd_width <= max(1, spec.simd_width)
        and config.gpu_global_threads <= spec.max_threads
        and config.gpu_local_threads <= 1024
    ):
        return config
    return replace(
        config,
        accelerator=spec.name,
        cores=min(config.cores, spec.cores),
        threads_per_core=min(config.threads_per_core, max(1, spec.threads_per_core)),
        simd_width=min(config.simd_width, max(1, spec.simd_width)),
        gpu_global_threads=min(config.gpu_global_threads, spec.max_threads),
        gpu_local_threads=min(config.gpu_local_threads, 1024),
    )

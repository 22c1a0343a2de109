"""Machine model: accelerator specs and the M-variable configuration space."""

from repro.machine.fleet import Fleet, spec_fingerprint, synthetic_fleet
from repro.machine.mvars import (
    M_VARIABLE_NAMES,
    MachineConfig,
    OmpSchedule,
    clamp_config,
    default_config,
    total_threads,
)
from repro.machine.space import (
    gpu_lattice,
    iter_configs,
    multicore_lattice,
    thread_sweep_configs,
)
from repro.machine.specs import (
    ACCELERATOR_PAIRS,
    ACCELERATORS,
    DEFAULT_PAIR,
    AcceleratorKind,
    AcceleratorSpec,
    accelerator_names,
    get_accelerator,
    with_memory_gb,
)

__all__ = [
    "ACCELERATORS",
    "ACCELERATOR_PAIRS",
    "AcceleratorKind",
    "AcceleratorSpec",
    "DEFAULT_PAIR",
    "Fleet",
    "M_VARIABLE_NAMES",
    "MachineConfig",
    "OmpSchedule",
    "accelerator_names",
    "clamp_config",
    "default_config",
    "get_accelerator",
    "gpu_lattice",
    "iter_configs",
    "multicore_lattice",
    "spec_fingerprint",
    "synthetic_fleet",
    "thread_sweep_configs",
    "total_threads",
    "with_memory_gb",
]

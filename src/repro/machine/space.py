"""The discrete M-choice lattice swept by tuning and training.

The paper's full space has "thousands of combinations"; offline training
(OpenTuner in the paper, exhaustive sweep here) searches a discretized
lattice per accelerator.  The lattice below keeps the knobs the cost model
responds to — thread counts, SIMD, schedule, placement, affinity — at the
granularities the paper's equations produce (fractions of the maximum in
0.1-ish steps, powers of two for group sizes).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.machine.mvars import MachineConfig, OmpSchedule, clamp_config
from repro.machine.specs import AcceleratorSpec

__all__ = [
    "multicore_lattice",
    "gpu_lattice",
    "iter_configs",
    "thread_sweep_configs",
]

_CORE_FRACTIONS = (0.05, 0.125, 0.25, 0.5, 0.75, 1.0)
_THREADS_PER_CORE = (1, 2, 4)
_SIMD_CHOICES = (1, 4, 16)
_SCHEDULES = (OmpSchedule.STATIC, OmpSchedule.DYNAMIC, OmpSchedule.GUIDED)
_PLACEMENTS = (0.0, 0.5, 1.0)
_AFFINITIES = (0.0, 1.0)
_GLOBAL_FRACTIONS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)
_LOCAL_THREADS = (32, 64, 128, 256, 512, 1024)
_BLOCKTIMES = (1.0, 1000.0)


def multicore_lattice(spec: AcceleratorSpec) -> Iterator[MachineConfig]:
    """All multicore configurations in the lattice for ``spec``."""
    seen: set[tuple] = set()
    for frac in _CORE_FRACTIONS:
        cores = max(1, round(frac * spec.cores))
        for tpc in _THREADS_PER_CORE:
            if tpc > spec.threads_per_core:
                continue
            for simd in _SIMD_CHOICES:
                if simd > spec.simd_width:
                    continue
                for schedule in _SCHEDULES:
                    for placement in _PLACEMENTS:
                        for affinity in _AFFINITIES:
                            for blocktime in _BLOCKTIMES:
                                key = (
                                    cores, tpc, simd, schedule, placement,
                                    affinity, blocktime,
                                )
                                if key in seen:
                                    continue
                                seen.add(key)
                                yield clamp_config(
                                    MachineConfig(
                                        accelerator=spec.name,
                                        cores=cores,
                                        threads_per_core=tpc,
                                        simd_width=simd,
                                        omp_schedule=schedule,
                                        placement_core=placement,
                                        placement_thread=placement,
                                        placement_offset=placement,
                                        affinity=affinity,
                                        blocktime_ms=blocktime,
                                    ),
                                    spec,
                                )


def gpu_lattice(spec: AcceleratorSpec) -> Iterator[MachineConfig]:
    """All GPU configurations in the lattice for ``spec``."""
    seen: set[tuple] = set()
    for frac in _GLOBAL_FRACTIONS:
        global_threads = max(1, round(frac * spec.max_threads))
        for local in _LOCAL_THREADS:
            if local > global_threads:
                continue
            key = (global_threads, local)
            if key in seen:
                continue
            seen.add(key)
            yield clamp_config(
                MachineConfig(
                    accelerator=spec.name,
                    gpu_global_threads=global_threads,
                    gpu_local_threads=local,
                ),
                spec,
            )


def iter_configs(spec: AcceleratorSpec) -> Iterator[MachineConfig]:
    """Lattice for either accelerator kind."""
    if spec.is_gpu:
        yield from gpu_lattice(spec)
    else:
        yield from multicore_lattice(spec)


def thread_sweep_configs(
    spec: AcceleratorSpec, num_points: int = 16
) -> list[tuple[float, MachineConfig]]:
    """Thread-count sweep from minimum to maximum (Figure 1's x-axis).

    Returns ``(normalized_thread_fraction, config)`` pairs.  Non-thread
    knobs stay at sensible defaults so the sweep isolates threading.
    """
    points: list[tuple[float, MachineConfig]] = []
    for step in range(num_points):
        fraction = (step + 1) / num_points
        if spec.is_gpu:
            config = MachineConfig(
                accelerator=spec.name,
                gpu_global_threads=max(1, round(fraction * spec.max_threads)),
                gpu_local_threads=min(256, max(1, round(fraction * 1024))),
            )
        else:
            total = max(1, round(fraction * spec.max_threads))
            cores = min(spec.cores, total)
            tpc = max(1, min(spec.threads_per_core, round(total / cores)))
            config = MachineConfig(
                accelerator=spec.name,
                cores=cores,
                threads_per_core=tpc,
                simd_width=spec.simd_width,
                blocktime_ms=200.0,
            )
        points.append((fraction, clamp_config(config, spec)))
    return points

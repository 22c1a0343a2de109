"""The accelerator cost model as one formula, and its evaluations.

:func:`_pass` is the model's one formulation: each element is a *row*,
one phase of one deployment, and the terms it reads are that row's
columns.  It takes its five operations that are not arithmetic
(minimum, maximum, abs, the square root and a fill) as an argument, so
the same code runs on NumPy row arrays and on one row of Python floats.
A pass covers one accelerator kind, so the GPU/multicore branches stay
plain ``if`` statements.  It serves two evaluations:
:func:`repro.accel.simulator.simulate` (one deployment, one float row
per phase, which also costs every (workload × device) row of a decide)
and :func:`batch_evaluate` (one workload on a config set such as the M
lattice).

The per-phase model (:func:`~repro.accel.cost_model.evaluate_cost` and
:func:`~repro.accel.energy.evaluate_energy`) is the reference, and every
evaluation equals it bit for bit: only IEEE-exact elementwise operations
(``+ - * /``, ``minimum``, ``maximum``, ``abs``, ``where``) run in NumPy,
since NumPy's SIMD ``power`` and ``log10`` round unlike libm on a few
percent of inputs; ``x ** 0.8``, ``x ** 0.5``, ``log10`` and the
config-independent row terms (:func:`_row`) are Python floats; every
expression keeps the reference's operand order; and phases add in phase
order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.accel.cost_model import (
    PhaseCost,
    WorkloadCost,
    _ATOMIC_BYTES,
    _CONGESTION_GAIN_GPU,
    _CONGESTION_GAIN_MC,
    _GPU_GROUP_DISPATCH_US,
    _GPU_LAUNCH_US,
    _GRAIN_ITEMS,
    _MC_ATOMIC_CACHE_FACTOR,
    _MC_LAUNCH_US,
    _SCHED_DYNAMIC_OVERHEAD,
    _SCHED_GUIDED_OVERHEAD,
    _SEQ_MISS,
    _SIMD_MAX_FILL,
    _cache_hit,
    _divergence_divisor,
    _streaming_cost,
)
from repro import obs
from repro.accel.energy import EnergyResult
from repro.errors import SimulationError
from repro.machine.mvars import MachineConfig, OmpSchedule, clamp_config, total_threads
from repro.machine.space import iter_configs
from repro.machine.specs import AcceleratorSpec
from repro.workload.phases import PhaseKind
from repro.workload.profile import WorkloadProfile

__all__ = [
    "SimulationResult",
    "ConfigTable",
    "BatchResult",
    "lattice_table",
    "batch_evaluate",
]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of running a workload on one accelerator configuration."""

    accelerator: str
    config: MachineConfig
    cost: WorkloadCost
    energy: EnergyResult

    @property
    def time_s(self) -> float:
        """Completion time in seconds."""
        return self.cost.time_s

    @property
    def time_ms(self) -> float:
        """Completion time in milliseconds."""
        return self.cost.time_s * 1e3

    @property
    def energy_j(self) -> float:
        """Energy in joules."""
        return self.energy.energy_j

    @property
    def utilization(self) -> float:
        """Core-busy fraction in [0, 1]."""
        return self.cost.utilization

    def objective(self, metric: str) -> float:
        """Scalar objective for tuning: lower is better.

        Raises:
            SimulationError: for unknown metric names.
        """
        if metric == "time":
            return self.time_s
        if metric == "energy":
            return self.energy_j
        if metric == "edp":  # energy-delay product
            return self.energy_j * self.time_s
        raise SimulationError(f"unknown objective metric {metric!r}")


# Spec × profile terms.
_Deploy = namedtuple(
    "_Deploy",
    "int_peak fp_peak needed max_threads footprint_pressure saturation bw_base"
    " latency atomic_cost coherent_factor iterations contention overhead"
    " streaming idle_watts",
)
# Config × spec terms, libm powers and logarithm included.
_Config = namedtuple(
    "_Config",
    "threads threads_floor width width_m1 skew_weight schedule_overhead"
    " rate_base fp_base placement affinity blocktime local_factor local_div"
    " outstanding barrier_factor hide span_active",
)
#: Rows per pass over a lattice: about the most whose live row arrays
#: still fit a core's L2 cache.
_BLOCK_ROWS = 2048
# The config-independent terms of each phase row (see ``_row``).
_Rows = namedtuple(
    "_Rows",
    "max_par items_per_iteration divisor int_ops fp_ops skew_waste skew"
    " edges_per_item simd_addressable simd_tail seq_traffic irregular_traffic"
    " irregular_share item_bytes conflicted atomics barrier_s memory_factor"
    " preferred placement_weight rw_share affinity_weight",
)
_KIND_FLAGS = {
    kind: (kind.is_data_parallel, kind is PhaseKind.PUSH_POP) for kind in PhaseKind
}
# The schedule factor as 1.0 + weight * skew + overhead: a static
# schedule's 0.0 adds exactly nothing, and None stands for the dynamic
# chunk penalty (the reference treats AUTO as DYNAMIC).
_SCHEDULE_TERMS = {
    OmpSchedule.STATIC: (0.5, 0.0),
    OmpSchedule.GUIDED: (0.2, _SCHED_GUIDED_OVERHEAD),
    OmpSchedule.DYNAMIC: (0.1, None),
    OmpSchedule.AUTO: (0.1, None),
}


def _deploy_row(spec: AcceleratorSpec, profile: WorkloadProfile) -> _Deploy:
    iterations = max(1, profile.num_iterations)
    if spec.is_gpu:
        saturation = spec.cores * min(spec.latency_hiding, 2.0)
        launch_us = _GPU_LAUNCH_US
    else:
        saturation, launch_us = spec.cores * 0.5, _MC_LAUNCH_US
    return _Deploy(
        spec.cores * spec.clock_ghz * 1e9 * spec.ipc,
        (spec.dp_tflops + 0.03 * spec.sp_tflops) * 1e12,
        spec.cores * spec.latency_hiding,
        spec.max_threads,
        min(4.0, profile.footprint_bytes / max(spec.cache_bytes, 1.0)) / 4.0,
        saturation,
        spec.mem_bw_gbps * 1e9 * spec.mem_efficiency,
        spec.mem_latency_ns * 1e-9,
        spec.atomic_cost_ns,
        _MC_ATOMIC_CACHE_FACTOR if spec.coherent else 1.0,
        iterations,
        profile.contention,
        iterations * launch_us * 1e-6,
        _streaming_cost(spec, profile),
        spec.idle_watts,
    )


def _config_row(spec: AcceleratorSpec, config: MachineConfig) -> _Config:
    threads = float(total_threads(config, spec))
    cores = min(config.cores, spec.cores)
    tpc = min(config.threads_per_core, spec.threads_per_core)
    width = min(config.simd_width, spec.simd_width)
    weight, overhead = _SCHEDULE_TERMS[config.omp_schedule]
    if overhead is None:
        overhead = _SCHED_DYNAMIC_OVERHEAD * (64.0 / max(config.omp_chunk, 1)) ** 0.5
    core_scale = cores ** 0.8 / spec.cores ** 0.8 * spec.cores
    if spec.is_gpu:
        active = min(1.0, threads / spec.max_threads)
    else:
        active = min(1.0, cores / spec.cores)
    return _Config(
        threads,
        max(threads, 1.0),
        width,
        width - 1.0,
        weight,
        overhead,
        core_scale * spec.clock_ghz * 1e9 * spec.ipc * (1.0 + 0.3 * (tpc - 1)),
        spec.dp_tflops * 1e12 / spec.simd_width * (core_scale / spec.cores),
        config.placement_looseness,
        config.affinity,
        math.log10(max(config.blocktime_ms, 1.0)) / 3.0,
        0.5 + config.gpu_local_threads / 1024.0,
        max(config.gpu_local_threads, 1),
        8.0 * cores,
        0.25 + 0.75 * threads / spec.max_threads,
        min(1.0, 0.25 + 0.12 * tpc),
        (spec.tdp_watts - spec.idle_watts) * active,
    )


def _matrix(rows: list[tuple]) -> np.ndarray:
    """Tuples as a C-contiguous (fields, len(rows)) float matrix."""
    return np.ascontiguousarray(np.array(rows, dtype=np.float64).T)


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` applied with Python floats, so it rounds exactly like libm."""
    flat = [fn(value) for value in values.ravel().tolist()]
    return np.array(flat).reshape(values.shape)


def _sqrt(x: float) -> float:
    """libm's ``pow(x, 0.5)``, the reference's square root (not ``sqrt``,
    which rounds differently on about 0.09% of inputs)."""
    return x ** 0.5


def _bare(like, value):
    """A one-row fill: the value itself."""
    return value


#: :func:`_pass`'s (minimum, maximum, abs, sqrt, fill) on one row of
#: Python floats: the reference's own operations.
_ONE_ROW = (min, max, abs, _sqrt, _bare)


def _row_ops(levels) -> tuple:
    """:func:`_pass`'s (minimum, maximum, abs, sqrt, fill) on a config
    table's rows, laid out as (phases, configs).

    The configs repeat a few thread counts, so the square root runs once
    per distinct column (``levels`` = first index, inverse) and is
    expanded back.
    """
    first, inverse = levels

    def sqrt(values):
        grid = values.reshape(-1, len(inverse))
        return _libm(_sqrt, grid[:, first])[:, inverse].reshape(values.shape)

    return np.minimum, np.maximum, np.abs, sqrt, np.full_like


def _row(gpu: bool, phase, profile: WorkloadProfile, spec: AcceleratorSpec) -> _Rows:
    """The config-independent terms of one phase row (``_Rows``), taken
    with Python floats in the reference's expressions and order."""
    items, skew = phase.items, phase.work_skew
    total = phase.total_bytes
    data_parallel, push_pop = _KIND_FLAGS[phase.kind]
    items_per_iteration = max(1.0, items / max(1, profile.num_iterations))
    edges_per_item = phase.edges / items if items else 0.0
    max_par = phase.max_parallelism
    if gpu and data_parallel:
        max_par = max_par * max(1.0, 0.5 * edges_per_item)
    miss = 1.0 - _cache_hit(spec, profile, phase, items_per_iteration)
    rw_share = phase.shared_rw_bytes / total if total else 0.0
    contention = profile.contention
    return _Rows(
        max_par,
        items_per_iteration,
        _divergence_divisor(spec, phase),
        phase.int_ops,
        phase.fp_ops,
        1.0 + 0.8 * skew,
        skew,
        edges_per_item,
        # Zero off data-parallel rows: 1.0 + (width - 1.0) * 0.0 is the
        # reference's SIMD efficiency of exactly 1.0 there.
        phase.seq_bytes / total if total and data_parallel else 0.0,
        1.0 - 0.5 * skew,
        phase.seq_bytes * _SEQ_MISS,
        phase.rand_bytes * miss + phase.indirect_bytes * miss * spec.indirect_penalty,
        (phase.rand_bytes + phase.indirect_bytes) / total if total else 0.0,
        min(1.0, (total / items if items else 0.0) / 256.0),
        phase.atomics * contention,
        phase.atomics,
        phase.barriers * spec.barrier_cost_us * 1e-6,
        1.0 + 3.0 * contention if gpu and push_pop else 1.0,
        min(1.0, 0.6 * skew + 0.6 * rw_share),
        0.35 if total > 0 else 0.0,
        rw_share,
        0.3 if total > 0 else 0.0,
    )


def _pass(gpu: bool, ops: tuple, row, deploy, config):
    """:func:`~repro.accel.cost_model._phase_cost` over rows of one kind.

    ``row``, ``deploy`` and ``config`` are the :data:`_Rows`,
    :data:`_Deploy` and :data:`_Config` terms, each a tuple of per-row
    columns or of scalars; ``ops`` is :data:`_ONE_ROW` for one row of
    Python floats or :func:`_row_ops` for a config table's row arrays.
    The rest of the model follows the reference expression by expression,
    in its operand order.  Returns the (compute, memory, sync, overhead,
    busy, stall) seconds of every row.
    """
    minimum, maximum, absolute, sqrt, full = ops
    (
        max_par, items_per_iteration, divisor, int_ops, fp_ops, skew_waste,
        skew, edges_per_item, simd_addressable, simd_tail, seq_traffic,
        irregular_traffic, irregular_share, item_bytes, conflicted, atomics,
        barrier_s, memory_factor, preferred, placement_weight, rw_share,
        affinity_weight,
    ) = row
    (
        int_peak, fp_peak, needed, max_threads, footprint_pressure,
        saturation, bw_base, latency, atomic_cost, coherent_factor,
        iterations, contention, overhead, _, _,
    ) = deploy
    # A multicore's ``hide`` and ``outstanding`` are config terms; a GPU
    # takes both from its useful threads below.
    (
        threads, threads_floor, width, width_m1, skew_weight,
        schedule_overhead, rate_base, fp_base, placement, affinity,
        blocktime, local_factor, local_div, outstanding, barrier_factor,
        hide, _,
    ) = config
    useful = maximum(1.0, minimum(threads, max_par))

    # ---- compute ------------------------------------------------------
    granularity = items_per_iteration / useful
    grain_eff = granularity / (granularity + _GRAIN_ITEMS)
    thread_pressure = useful / max_threads
    if gpu:
        hide = minimum(1.0, useful / needed)
        occupancy = maximum(hide, thread_pressure)
        int_rate = int_peak * occupancy
        fp_rate = maximum(fp_peak * occupancy, 1e8)
        work_factor = skew_waste
    else:
        density_fill = minimum(1.0, edges_per_item / width)
        fill = _SIMD_MAX_FILL * density_fill * simd_addressable * simd_tail
        simd_eff = 1.0 + width_m1 * fill
        parallel_cap = minimum(1.0, useful / threads_floor)
        int_rate = rate_base * parallel_cap * simd_eff
        fp_rate = maximum(fp_base * simd_eff, 1e8)
        work_factor = 1.0 + skew_weight * skew + schedule_overhead
    int_rate = int_rate / divisor
    fp_rate = fp_rate / divisor
    compute_s = (
        (int_ops / int_rate + fp_ops / fp_rate)
        * work_factor / maximum(grain_eff, 1e-3)
    )

    # ---- memory -------------------------------------------------------
    gain = _CONGESTION_GAIN_GPU if gpu else _CONGESTION_GAIN_MC
    congestion = (
        gain * thread_pressure * irregular_share * item_bytes * footprint_pressure
    )
    if gpu:
        congestion = congestion * local_factor
        outstanding = useful
    bw_ramp = minimum(1.0, sqrt(useful / saturation))
    effective_bw = bw_base * maximum(bw_ramp, 0.05) / (1.0 + congestion)
    random_bw = minimum(effective_bw, outstanding * 64.0 / latency)
    memory_s = (
        seq_traffic / effective_bw + irregular_traffic / maximum(random_bw, 1.0)
    )
    if gpu:
        memory_s = memory_s * memory_factor
    else:
        memory_s = memory_s * (
            1.0 + placement_weight * absolute(placement - preferred)
        )

    # ---- synchronization ----------------------------------------------
    collision = minimum(1.0, useful / items_per_iteration)
    drain_width = maximum(1.0, minimum(useful, items_per_iteration))
    serialized = conflicted * collision / drain_width
    streamed = (atomics - conflicted * collision) * _ATOMIC_BYTES
    streamed = streamed * coherent_factor
    sync_s = serialized * atomic_cost * 1e-9 + streamed / bw_base
    sync_s = sync_s + barrier_s * barrier_factor
    if not gpu:
        sync_s = sync_s * (1.0 + 0.4 * absolute(blocktime - contention))
        sync_s = sync_s * (1.0 + affinity_weight * absolute(affinity - rw_share))

    # ---- fixed overheads and utilization accounting -------------------
    if gpu:
        groups = useful / local_div
        overhead_s = overhead + iterations * groups * _GPU_GROUP_DISPATCH_US * 1e-6
    else:
        overhead_s = full(useful, overhead)
    busy = compute_s + hide * minimum(memory_s, compute_s)
    stall = maximum(memory_s - compute_s, 0.0) * (1.0 - hide) + sync_s
    return compute_s, memory_s, sync_s, overhead_s, busy, stall


def _fold(grid, deploy: _Deploy, span_active) -> tuple:
    """Workload totals of (phases, configs) :func:`_pass` outputs:
    (time, busy, stall, utilization, power, energy).  Phases add in phase
    order, as :func:`evaluate_cost` adds them from 0.0."""
    compute, memory, sync, overhead, busy, stall = grid
    totals = np.maximum(compute, memory) + sync + overhead
    time_s, busy_s, stall_s = totals[0], busy[0], stall[0]
    for p in range(1, len(totals)):
        time_s = time_s + totals[p]
        busy_s = busy_s + busy[p]
        stall_s = stall_s + stall[p]
    time_s = time_s + deploy.streaming
    denominator = busy_s + stall_s
    utilization = np.divide(
        busy_s, denominator, out=np.zeros_like(busy_s), where=denominator > 0
    )
    power = deploy.idle_watts + span_active * (0.4 + 0.6 * utilization)
    return time_s, busy_s, stall_s, utilization, power, power * time_s


@dataclass(frozen=True)
class ConfigTable:
    """A set of machine configurations for one spec, as pass columns.

    One entry per configuration (lattice order when built from the
    lattice), clamped by the ceiling rule exactly as the reference
    clamps; the cached :func:`lattice_table` takes their terms once.
    """

    spec: AcceleratorSpec
    configs: tuple[MachineConfig, ...]
    #: ``_Config`` terms, one column per configuration.
    matrix: np.ndarray
    #: (first index, inverse) of each distinct thread count.
    levels: tuple[np.ndarray, np.ndarray]
    _tiled: dict[int, _Config] = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.configs)

    def columns(self, phases: int = 1) -> _Config:
        """The config terms repeated once per phase, the row layout of a
        block of ``phases`` phases; cached per phase count."""
        columns = self._tiled.get(phases)
        if columns is None:
            columns = self._tiled[phases] = _Config(*np.tile(self.matrix, phases))
        return columns

    @classmethod
    def from_configs(
        cls, spec: AcceleratorSpec, configs: Iterable[MachineConfig]
    ) -> "ConfigTable":
        """Columnize ``configs`` for ``spec``, applying the ceiling rule."""
        clamped = tuple(clamp_config(config, spec) for config in configs)
        if not clamped:
            raise SimulationError("a ConfigTable needs at least one config")
        matrix = _matrix([_config_row(spec, config) for config in clamped])
        _, first, inverse = np.unique(matrix[0], return_index=True, return_inverse=True)
        return cls(spec=spec, configs=clamped, matrix=matrix, levels=(first, inverse))


_lattice_tables: dict[AcceleratorSpec, ConfigTable] = {}


def lattice_table(spec: AcceleratorSpec) -> ConfigTable:
    """The spec's full M lattice as a (cached) :class:`ConfigTable`."""
    table = _lattice_tables.get(spec)
    if table is None:
        table = ConfigTable.from_configs(spec, iter_configs(spec))
        _lattice_tables[spec] = table
    return table


@dataclass(frozen=True)
class BatchResult:
    """Per-config model outputs for one workload on one accelerator.

    All arrays share the config axis of ``table`` (length N); the
    per-phase component arrays have shape (num_phases, N).
    """

    table: ConfigTable
    phase_kinds: tuple[str, ...]
    compute_s: np.ndarray
    memory_s: np.ndarray
    sync_s: np.ndarray
    overhead_s: np.ndarray
    streaming_s: float
    time_s: np.ndarray
    busy_s: np.ndarray
    stall_s: np.ndarray
    utilization: np.ndarray
    avg_power_w: np.ndarray
    energy_j: np.ndarray

    def __len__(self) -> int:
        return len(self.table)

    @property
    def spec(self) -> AcceleratorSpec:
        return self.table.spec

    @property
    def configs(self) -> tuple[MachineConfig, ...]:
        return self.table.configs

    def objective(self, metric: str) -> np.ndarray:
        """Per-config objective array: lower is better.

        Raises:
            SimulationError: for unknown metric names.
        """
        if metric == "time":
            return self.time_s
        if metric == "energy":
            return self.energy_j
        if metric == "edp":
            return self.energy_j * self.time_s
        raise SimulationError(f"unknown objective metric {metric!r}")

    def argbest(self, metric: str = "time") -> int:
        """Index of the best config (first minimum, like the scalar scan)."""
        return int(np.argmin(self.objective(metric)))

    def materialize(self, index: int) -> SimulationResult:
        """Rebuild the full :class:`SimulationResult` for one config."""
        phase_costs = tuple(
            PhaseCost(
                kind=kind,
                compute_s=float(self.compute_s[p, index]),
                memory_s=float(self.memory_s[p, index]),
                sync_s=float(self.sync_s[p, index]),
                overhead_s=float(self.overhead_s[p, index]),
            )
            for p, kind in enumerate(self.phase_kinds)
        )
        cost = WorkloadCost(
            accelerator=self.spec.name,
            phase_costs=phase_costs,
            streaming_s=self.streaming_s,
            time_s=float(self.time_s[index]),
            busy_s=float(self.busy_s[index]),
            stall_s=float(self.stall_s[index]),
        )
        energy = EnergyResult(
            accelerator=self.spec.name,
            avg_power_w=float(self.avg_power_w[index]),
            energy_j=float(self.energy_j[index]),
        )
        return SimulationResult(
            accelerator=self.spec.name,
            config=self.configs[index],
            cost=cost,
            energy=energy,
        )

    def materialize_all(self) -> list[SimulationResult]:
        """All configs as :class:`SimulationResult` objects, in table order."""
        return [self.materialize(i) for i in range(len(self))]

    def best(self, metric: str = "time") -> SimulationResult:
        """Materialized best config for the given objective."""
        return self.materialize(self.argbest(metric))


def batch_evaluate(
    profile: WorkloadProfile,
    spec: AcceleratorSpec,
    configs: ConfigTable | Sequence[MachineConfig] | None = None,
) -> BatchResult:
    """Evaluate ``profile`` on every configuration at once.

    Args:
        profile: workload to cost.
        spec: target accelerator.
        configs: a prebuilt :class:`ConfigTable`, an explicit config
            sequence, or None for the spec's full (cached) lattice.

    Returns:
        A :class:`BatchResult` of per-config time, energy, and utilization
        arrays plus the per-phase component breakdowns.
    """
    if configs is None:
        table = lattice_table(spec)
    elif isinstance(configs, ConfigTable):
        table = configs
    else:
        table = ConfigTable.from_configs(spec, configs)
    if table.spec is not spec and table.spec != spec:
        raise SimulationError(
            f"ConfigTable built for {table.spec.name!r} cannot be evaluated "
            f"on {spec.name!r}"
        )
    # Rows are phases × configs, passed in blocks of whole phases small
    # enough for the cache; a one-phase block keeps its terms scalar.
    phases, n = len(profile.phases), len(table)
    statics = [_row(spec.is_gpu, phase, profile, spec) for phase in profile.phases]
    deploy = _deploy_row(spec, profile)
    ops, step, blocks = _row_ops(table.levels), max(1, _BLOCK_ROWS // n), []
    for start in range(0, phases, step):
        block = statics[start : start + step]
        terms = block[0] if len(block) == 1 else np.repeat(_matrix(block), n, 1)
        columns = table.columns(len(block))
        blocks.append(_pass(spec.is_gpu, ops, terms, deploy, columns))
    grid = [
        (np.concatenate(part) if len(part) > 1 else part[0]).reshape(phases, n)
        for part in zip(*blocks)
    ]
    time_s, busy_s, stall_s, utilization, power, energy = _fold(
        grid, deploy, table.columns().span_active
    )
    if obs.enabled():  # vs cost_model.evals{path="scalar"}
        obs.counter("cost_model.evals", path="batch")
        obs.counter("cost_model.configs", n, path="batch")
    return BatchResult(
        table=table,
        phase_kinds=tuple(phase.kind.value for phase in profile.phases),
        compute_s=grid[0],
        memory_s=grid[1],
        sync_s=grid[2],
        overhead_s=grid[3],
        streaming_s=deploy.streaming,
        time_s=time_s,
        busy_s=busy_s,
        stall_s=stall_s,
        utilization=utilization,
        avg_power_w=power,
        energy_j=energy,
    )


def _profile_terms(profile: WorkloadProfile, spec: AcceleratorSpec) -> tuple:
    """``profile``'s :func:`_row` terms on ``spec``, one tuple per phase,
    its :func:`_deploy_row` and its phase-kind strings, taken once per
    (profile, spec).

    They are kept in ``profile.cost_terms`` under ``id(spec)``.  An entry
    holds its spec and counts only for that very object, so a reused id
    or a copied profile's entries are taken again.
    """
    terms = profile.cost_terms.get(id(spec))
    if terms is None or terms[3] is not spec:
        gpu = spec.is_gpu
        rows = tuple(_row(gpu, phase, profile, spec) for phase in profile.phases)
        kinds = tuple(phase.kind.value for phase in profile.phases)
        terms = (rows, _deploy_row(spec, profile), kinds, spec)
        profile.cost_terms[id(spec)] = terms
    return terms


def _config_terms(config: MachineConfig, spec: AcceleratorSpec) -> tuple:
    """``config`` clamped to ``spec`` and its :func:`_config_row`, taken
    once per (config, spec).

    They are kept in ``config.cost_terms`` under ``id(spec)`` by
    :func:`_profile_terms`'s rule: an entry holds its spec and counts
    only for that very object.
    """
    terms = config.cost_terms.get(id(spec))
    if terms is None or terms[2] is not spec:
        clamped = clamp_config(config, spec)
        terms = (clamped, _config_row(spec, clamped), spec)
        config.cost_terms[id(spec)] = terms
    return terms

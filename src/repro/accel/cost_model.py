"""Analytical accelerator cost model.

Computes per-phase compute, memory, and synchronization times for a
:class:`~repro.workload.profile.WorkloadProfile` executing on an
:class:`~repro.machine.specs.AcceleratorSpec` under a
:class:`~repro.machine.mvars.MachineConfig`.  The model is phenomenological
— it encodes the *relative* architectural trade-offs the paper's analysis
rests on rather than cycle accuracy:

* GPUs have an order of magnitude more (simple) cores, so they win raw
  throughput on data-parallel phases — but they need thousands of resident
  threads to hide memory latency (occupancy), lose a ``divergence_penalty``
  on push-pop/reduction phases, an ``indirect_penalty`` on pointer-chased
  bytes, pay per-iteration kernel-launch and barrier costs that bite on
  high-diameter traversals, and their atomics serialize under contention.
* Multicores have fewer but richer cores (SIMD, coherent caches).  SIMD
  only fills on dense, index-addressed inner loops; coherent caches make
  read-write shared bytes cheap; atomics and barriers are fast; SMT hides
  in-order pipeline stalls.
* Oversubscribing threads raises memory-system congestion — the source of
  the U-shaped completion-time curves in Figures 1 and 7.
* OpenMP-level knobs (schedule, placement, affinity, blocktime) apply
  second-order multipliers, giving intra-accelerator tuning its ~10-40%
  swing (the Figure 7 "selected vs optimal" gap).
* Graphs larger than device memory are chunk-streamed at the host link
  bandwidth every iteration (Figure 16's memory-size sensitivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.mvars import MachineConfig, OmpSchedule, total_threads
from repro.machine.specs import AcceleratorSpec
from repro.workload.phases import PhaseKind
from repro.workload.profile import PhaseProfile, WorkloadProfile

__all__ = ["PhaseCost", "WorkloadCost", "evaluate_cost"]

_GPU_LAUNCH_US = 18.0  # kernel launch + device sync per iteration
_MC_LAUNCH_US = 2.0  # parallel-region fork/join per iteration
_GPU_GROUP_DISPATCH_US = 0.05  # per work-group scheduling cost
_CONGESTION_GAIN_GPU = 2.0
_CONGESTION_GAIN_MC = 1.0
_SEQ_MISS = 0.1  # streaming accesses prefetch well
_SIMD_MAX_FILL = 0.2  # gather/scatter keeps graph SIMD well under peak
_SCHED_DYNAMIC_OVERHEAD = 0.06
_SCHED_GUIDED_OVERHEAD = 0.02
_ATOMIC_BYTES = 16.0  # read-modify-write traffic of one atomic
_MC_PUSHPOP_EXTRA = 0.7  # queue ordering costs on in-order multicores
_REUSE_BONUS = 0.45  # multicore cache-blocking credit on re-scanned data
_MC_ATOMIC_CACHE_FACTOR = 0.3  # share of atomic RMW traffic missing cache
_GRAIN_ITEMS = 4.0  # per-thread items needed to amortize dispatch


def _divergence_divisor(spec: AcceleratorSpec, phase: PhaseProfile) -> float:
    """Throughput divisor for branch-divergent phases, per phase kind.

    Reductions pay the full ``divergence_penalty`` (warp-serialized tree
    steps on GPUs); push-pop queue phases pay a softened penalty on GPUs
    (``sqrt``) but an ordering surcharge on multicores, whose queues
    serialize through the coherence protocol.
    """
    if not phase.kind.is_divergent:
        return 1.0
    if phase.kind is PhaseKind.PUSH_POP:
        if spec.is_gpu:
            return spec.divergence_penalty ** 0.5
        return spec.divergence_penalty + _MC_PUSHPOP_EXTRA
    return spec.divergence_penalty


@dataclass(frozen=True)
class PhaseCost:
    """Time breakdown (seconds) for one phase."""

    kind: str
    compute_s: float
    memory_s: float
    sync_s: float
    overhead_s: float

    @property
    def total_s(self) -> float:
        # Compute and memory overlap roofline-style; sync and fixed
        # overheads serialize behind them.
        return max(self.compute_s, self.memory_s) + self.sync_s + self.overhead_s


@dataclass(frozen=True)
class WorkloadCost:
    """Full cost result for a workload on one (spec, config) point."""

    accelerator: str
    phase_costs: tuple[PhaseCost, ...]
    streaming_s: float
    time_s: float
    busy_s: float
    stall_s: float

    @property
    def utilization(self) -> float:
        """Fraction of occupied-core time spent doing work (Figure 13)."""
        denominator = self.busy_s + self.stall_s
        return self.busy_s / denominator if denominator > 0 else 0.0


def _occupancy(spec: AcceleratorSpec, useful_threads: float) -> float:
    """Fraction of peak GPU throughput reachable with this many threads."""
    needed = spec.cores * spec.latency_hiding
    return min(1.0, useful_threads / needed)


def _simd_efficiency(
    spec: AcceleratorSpec, config: MachineConfig, phase: PhaseProfile
) -> float:
    """Effective SIMD speedup for a multicore phase.

    Vector lanes only fill when the inner loop is dense enough
    (edges-per-item vs the configured width), the data is index-addressed
    (B7), and per-item work is even; even then graph gathers keep
    efficiency well below peak (``_SIMD_MAX_FILL``).
    """
    width = min(config.simd_width, spec.simd_width)
    if width <= 1 or not phase.kind.is_data_parallel:
        return 1.0
    edges_per_item = phase.edges / phase.items if phase.items else 0.0
    density_fill = min(1.0, edges_per_item / width)
    addressable = phase.seq_bytes / phase.total_bytes if phase.total_bytes else 0.0
    fill = _SIMD_MAX_FILL * density_fill * addressable * (1.0 - 0.5 * phase.work_skew)
    return 1.0 + (width - 1.0) * fill


def _schedule_factor(config: MachineConfig, phase: PhaseProfile) -> float:
    """Load-imbalance multiplier from the OMP schedule choice (M11/M12)."""
    skew = phase.work_skew
    if config.omp_schedule is OmpSchedule.STATIC:
        return 1.0 + 0.5 * skew
    if config.omp_schedule is OmpSchedule.GUIDED:
        return 1.0 + 0.2 * skew + _SCHED_GUIDED_OVERHEAD
    # Dynamic (and auto, which we treat as dynamic) balances best but pays
    # per-chunk dispatch; tiny chunks pay more.
    chunk_penalty = _SCHED_DYNAMIC_OVERHEAD * (64.0 / max(config.omp_chunk, 1)) ** 0.5
    return 1.0 + 0.1 * skew + chunk_penalty


def _placement_factor(config: MachineConfig, phase: PhaseProfile) -> float:
    """Data-movement multiplier from thread placement (M5-M7).

    Skewed work and heavy RW sharing prefer loose placement (spread
    threads near idle cores' cache slices — Section III-A); uniform local
    work prefers compact placement.
    """
    if phase.total_bytes <= 0:
        return 1.0
    rw_share = phase.shared_rw_bytes / phase.total_bytes
    preferred = min(1.0, 0.6 * phase.work_skew + 0.6 * rw_share)
    return 1.0 + 0.35 * abs(config.placement_looseness - preferred)


def _affinity_factor(config: MachineConfig, phase: PhaseProfile) -> float:
    """Sharing-traffic multiplier from affinity pinning (M8)."""
    if phase.total_bytes <= 0:
        return 1.0
    rw_share = phase.shared_rw_bytes / phase.total_bytes
    return 1.0 + 0.3 * abs(config.affinity - rw_share)


def _blocktime_factor(config: MachineConfig, contention: float) -> float:
    """Sync-stall multiplier from KMP blocktime (M4).

    High contention wants long blocktimes (sleep instead of polling);
    contention-free phases want short ones (no wake-up latency).
    """
    normalized = math.log10(max(config.blocktime_ms, 1.0)) / 3.0
    return 1.0 + 0.4 * abs(normalized - contention)


def _cache_hit(
    spec: AcceleratorSpec,
    profile: WorkloadProfile,
    phase: PhaseProfile,
    items_per_iteration: float,
) -> float:
    """Share of a phase's random and indirect bytes the cache serves."""
    cache_hit = min(0.95, spec.cache_bytes / max(profile.footprint_bytes, 1.0))
    if not spec.is_gpu and spec.coherent:
        # Coherent caches retain RW-shared state across cores — but only
        # while the live per-iteration state working set actually fits
        # (delta-stepping's bucket state does; a 65M-vertex rank array
        # does not).
        state_working_set = 24.0 * items_per_iteration
        resident = min(1.0, spec.cache_bytes / max(state_working_set, 1.0))
        rw_share = (
            phase.shared_rw_bytes / phase.total_bytes if phase.total_bytes else 0.0
        )
        # Cache blocking pays off when a single pass re-scans its data
        # many times over (triangle counting's wedge intersections);
        # iteration-to-iteration streams larger than cache get nothing.
        bytes_per_pass = phase.total_bytes / max(1, profile.num_iterations)
        reuse = max(
            0.0, 1.0 - profile.footprint_bytes / max(bytes_per_pass, 1.0)
        )
        ro_share = (
            phase.shared_ro_bytes / phase.total_bytes if phase.total_bytes else 0.0
        )
        cache_hit = min(
            0.97,
            cache_hit + 0.45 * rw_share * resident + _REUSE_BONUS * reuse * ro_share,
        )
    return cache_hit


def _phase_cost(
    spec: AcceleratorSpec,
    config: MachineConfig,
    profile: WorkloadProfile,
    phase: PhaseProfile,
) -> tuple[PhaseCost, float, float]:
    """Cost one phase; returns (cost, busy_seconds, stall_seconds)."""
    threads = float(total_threads(config, spec))
    max_par = phase.max_parallelism
    if spec.is_gpu and phase.kind.is_data_parallel:
        # GPU kernels split inner edge loops across threads too, so the
        # exploitable parallelism is items x edges-per-item, not just the
        # outer-loop width (dense tiny graphs like the connectome still
        # fill the chip).
        edges_per_item = phase.edges / phase.items if phase.items else 0.0
        max_par = max_par * max(1.0, 0.5 * edges_per_item)
    useful = max(1.0, min(threads, max_par))
    iterations = max(1, profile.num_iterations)
    items_per_iteration = max(1.0, phase.items / iterations)

    # ---- compute ------------------------------------------------------
    # Too little work per thread wastes cores on fork/launch amortization
    # — the reason road-network frontiers prefer modest core counts and
    # the paper scales M2 with graph size.
    granularity = items_per_iteration / useful
    grain_eff = granularity / (granularity + _GRAIN_ITEMS)
    if spec.is_gpu:
        occupancy = max(_occupancy(spec, useful), useful / spec.max_threads)
        int_rate = spec.cores * spec.clock_ghz * 1e9 * spec.ipc * occupancy
        # B6 compute runs on the GPU's starved FP64 path blended with a
        # slice of FP32 (mixed-precision scoring), so consumer GPUs keep
        # a fraction of their peak (Table II: 0.04 DP vs 1.3 SP TFLOPs).
        fp_rate = max(
            (spec.dp_tflops + 0.03 * spec.sp_tflops) * 1e12 * occupancy, 1e8
        )
        divisor = _divergence_divisor(spec, phase)
        int_rate /= divisor
        fp_rate /= divisor
        # Divergent lanes within a work-group also waste SIMT slots in
        # proportion to work skew.
        skew_waste = 1.0 + 0.8 * phase.work_skew
        compute_s = (
            (phase.int_ops / int_rate + phase.fp_ops / fp_rate)
            * skew_waste / max(grain_eff, 1e-3)
        )
    else:
        cores_used = min(config.cores, spec.cores)
        tpc = min(config.threads_per_core, spec.threads_per_core)
        smt_boost = 1.0 + 0.3 * (tpc - 1)  # SMT hides in-order stalls
        simd_eff = _simd_efficiency(spec, config, phase)
        parallel_cap = min(1.0, useful / max(threads, 1.0))
        # Core scaling is sub-linear: shared LLC slices, ring traffic,
        # and load imbalance erode the marginal core's contribution.
        core_scale = cores_used ** 0.8 / spec.cores ** 0.8 * spec.cores
        scalar_rate = (
            core_scale * spec.clock_ghz * 1e9 * spec.ipc * smt_boost * parallel_cap
        )
        int_rate = scalar_rate * simd_eff
        # FP is capped by the vector FPU peak, scaled to the cores in use.
        fp_scalar = spec.dp_tflops * 1e12 / spec.simd_width * (core_scale / spec.cores)
        fp_rate = max(fp_scalar * simd_eff, 1e8)
        divisor = _divergence_divisor(spec, phase)
        int_rate /= divisor
        fp_rate /= divisor
        compute_s = (
            (phase.int_ops / int_rate + phase.fp_ops / fp_rate)
            * _schedule_factor(config, phase) / max(grain_eff, 1e-3)
        )

    # ---- memory -------------------------------------------------------
    cache_hit = _cache_hit(spec, profile, phase, items_per_iteration)
    seq_traffic = phase.seq_bytes * _SEQ_MISS
    rand_traffic = phase.rand_bytes * (1.0 - cache_hit)
    indirect_traffic = (
        phase.indirect_bytes * (1.0 - cache_hit) * spec.indirect_penalty
    )
    traffic = seq_traffic + rand_traffic + indirect_traffic

    irregular_share = (
        (phase.rand_bytes + phase.indirect_bytes) / phase.total_bytes
        if phase.total_bytes
        else 0.0
    )
    bytes_per_item = phase.total_bytes / phase.items if phase.items else 0.0
    congestion_gain = _CONGESTION_GAIN_GPU if spec.is_gpu else _CONGESTION_GAIN_MC
    thread_pressure = useful / spec.max_threads
    footprint_pressure = min(
        4.0, profile.footprint_bytes / max(spec.cache_bytes, 1.0)
    ) / 4.0
    congestion = (
        congestion_gain
        * thread_pressure
        * irregular_share
        * min(1.0, bytes_per_item / 256.0)
        * footprint_pressure
    )
    if spec.is_gpu:
        # Larger work groups concentrate cache stress on each SM.
        congestion *= 0.5 + config.gpu_local_threads / 1024.0

    if spec.is_gpu:
        saturation_threads = spec.cores * min(spec.latency_hiding, 2.0)
    else:
        # A modest slice of a multicore's cores already saturates its
        # memory controllers on bandwidth-bound kernels.
        saturation_threads = spec.cores * 0.5
    bw_ramp = min(1.0, (useful / saturation_threads) ** 0.5)
    effective_bw = (
        spec.mem_bw_gbps * 1e9 * spec.mem_efficiency
        * max(bw_ramp, 0.05) / (1.0 + congestion)
    )
    # Random accesses are concurrency-limited by outstanding misses.
    # GPUs keep roughly one request in flight per resident thread
    # (thousands of them); multicore cores sustain several outstanding
    # misses each through their MSHRs regardless of thread count.
    if spec.is_gpu:
        outstanding = useful
    else:
        outstanding = 8.0 * min(config.cores, spec.cores)
    random_bw_cap = outstanding * 64.0 / (spec.mem_latency_ns * 1e-9)
    random_bw = min(effective_bw, random_bw_cap)
    memory_s = (
        seq_traffic / effective_bw
        + (rand_traffic + indirect_traffic) / max(random_bw, 1.0)
    )
    if spec.is_gpu and phase.kind is PhaseKind.PUSH_POP:
        # Ordered queue maintenance scatters contended updates across the
        # GPU's uncached global memory; the cost grows with the contended
        # data share (Section III-C's ordering constraints).
        memory_s *= 1.0 + 3.0 * profile.contention
    if not spec.is_gpu:
        memory_s *= _placement_factor(config, phase)

    # ---- synchronization ----------------------------------------------
    contention = profile.contention
    # Atomics on the contended share (B12) queue per address: collisions
    # only happen when threads outnumber the per-iteration address space,
    # and queued updates on different addresses drain in parallel.
    # Conflict-free atomics stream as read-modify-write traffic.
    conflicted = phase.atomics * contention
    addresses = items_per_iteration
    collision = min(1.0, useful / addresses)
    drain_width = max(1.0, min(useful, addresses))
    serialized = conflicted * collision / drain_width
    streamed = (phase.atomics - conflicted * collision) * _ATOMIC_BYTES
    if spec.coherent:
        # Coherent caches absorb most read-modify-write traffic on shared
        # lines; only the miss slice reaches memory.
        streamed *= _MC_ATOMIC_CACHE_FACTOR
    atomic_bw = spec.mem_bw_gbps * 1e9 * spec.mem_efficiency
    sync_s = serialized * spec.atomic_cost_ns * 1e-9 + streamed / atomic_bw
    sync_s += phase.barriers * spec.barrier_cost_us * 1e-6 * (
        0.25 + 0.75 * threads / spec.max_threads
    )
    if not spec.is_gpu:
        sync_s *= _blocktime_factor(config, contention)
        sync_s *= _affinity_factor(config, phase)

    # ---- fixed overheads ----------------------------------------------
    if spec.is_gpu:
        overhead_s = iterations * _GPU_LAUNCH_US * 1e-6
        groups = useful / max(config.gpu_local_threads, 1)
        overhead_s += iterations * groups * _GPU_GROUP_DISPATCH_US * 1e-6
    else:
        overhead_s = iterations * _MC_LAUNCH_US * 1e-6

    cost = PhaseCost(
        kind=phase.kind.value,
        compute_s=compute_s,
        memory_s=memory_s,
        sync_s=sync_s,
        overhead_s=overhead_s,
    )
    # Utilization accounting: memory/sync time that the machine cannot
    # hide counts as stall.  GPUs hide memory stalls via thread switching.
    if spec.is_gpu:
        hide = _occupancy(spec, useful)
    else:
        tpc = min(config.threads_per_core, spec.threads_per_core)
        hide = min(1.0, 0.25 + 0.12 * tpc)
    busy = compute_s + hide * min(memory_s, compute_s)
    stall = max(memory_s - compute_s, 0.0) * (1.0 - hide) + sync_s
    return cost, busy, stall


def _streaming_cost(spec: AcceleratorSpec, profile: WorkloadProfile) -> float:
    """Per-run chunk-streaming cost for graphs exceeding device memory."""
    overflow = profile.footprint_bytes - spec.mem_bytes
    if overflow <= 0:
        return 0.0
    # Every iteration re-streams the chunks that do not stay resident.
    reload_bytes = overflow * profile.num_iterations
    return reload_bytes / (spec.stream_bw_gbps * 1e9)


def evaluate_cost(
    profile: WorkloadProfile,
    spec: AcceleratorSpec,
    config: MachineConfig,
) -> WorkloadCost:
    """Total completion-time model for one deployment choice.

    Returns a :class:`WorkloadCost` whose ``time_s`` is the on-accelerator
    completion time (the paper's metric: accelerator processing time only,
    with streaming reloads counted when the graph exceeds device memory).
    """
    phase_costs = []
    busy = stall = time_s = 0.0
    for phase in profile.phases:
        cost, phase_busy, phase_stall = _phase_cost(spec, config, profile, phase)
        phase_costs.append(cost)
        busy += phase_busy
        stall += phase_stall
        time_s += cost.total_s  # not sum(): 3.12's float sum is compensated
    streaming_s = _streaming_cost(spec, profile)
    time_s += streaming_s
    # Utilization mirrors nvprof/PAPI core-busy accounting: host-link
    # streaming is a DMA wait, not a core stall (the paper's methodology
    # excludes memory-transfer variations from its on-chip analysis).
    return WorkloadCost(
        accelerator=spec.name,
        phase_costs=tuple(phase_costs),
        streaming_s=streaming_s,
        time_s=time_s,
        busy_s=busy,
        stall_s=stall,
    )

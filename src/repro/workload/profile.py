"""Workload profiles: the event-count contract between kernels and the
accelerator simulator.

A kernel run (or the synthetic generator) produces a :class:`KernelTrace`
of raw structural counts; :func:`build_profile` combines the trace with the
benchmark's B variables and the target graph characteristics to produce a
:class:`WorkloadProfile` of costed events — bytes split by addressing mode
and sharing class, FP/int operations, atomics, and barriers.  Scale factors
let a trace measured on a small structural proxy stand in for a paper-scale
graph: counts grow linearly with vertex/edge counts and with the iteration
ratio implied by the diameter (see DESIGN.md, substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import SimulationError
from repro.features.bvars import BVariables
from repro.workload.phases import PhaseKind

__all__ = [
    "PhaseTrace",
    "KernelTrace",
    "PhaseProfile",
    "WorkloadProfile",
    "build_profile",
    "BYTES_PER_EDGE",
    "BYTES_PER_VERTEX_STATE",
]

BYTES_PER_EDGE = 16.0  # destination id + weight
BYTES_PER_VERTEX_STATE = 8.0  # one double of per-vertex state
_OPS_PER_EDGE = 6.0  # compare + add + index arithmetic
_OPS_PER_ITEM = 4.0  # loop control + state update


@dataclass(frozen=True)
class PhaseTrace:
    """Raw counts for one phase, accumulated over all iterations.

    Attributes:
        kind: scheduling structure of the phase.
        items: total work items processed (e.g. frontier vertices summed
            over BFS levels).
        edges: total edge traversals.
        max_parallelism: peak number of items concurrently available —
            caps how many threads can do useful work (1 for serial DFS
            stack pops, |V| for vertex division).
        work_skew: imbalance of per-item work in [0, 1] (degree Gini of
            the processed vertices is the usual source).
    """

    kind: PhaseKind
    items: float
    edges: float
    max_parallelism: float
    work_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.items < 0 or self.edges < 0:
            raise SimulationError("phase counts must be non-negative")
        if self.max_parallelism < 1:
            raise SimulationError("max_parallelism must be >= 1")
        if not 0.0 <= self.work_skew <= 1.0:
            raise SimulationError("work_skew must be in [0, 1]")


@dataclass(frozen=True)
class KernelTrace:
    """Everything a kernel run reports to the profiling layer."""

    benchmark: str
    graph_name: str
    phases: tuple[PhaseTrace, ...]
    num_iterations: int

    def __post_init__(self) -> None:
        if self.num_iterations < 1:
            raise SimulationError("num_iterations must be >= 1")
        if not self.phases:
            raise SimulationError("a trace needs at least one phase")


@dataclass(frozen=True)
class PhaseProfile:
    """Costed events for one phase (what the simulator consumes)."""

    kind: PhaseKind
    items: float
    edges: float
    max_parallelism: float
    work_skew: float
    int_ops: float
    fp_ops: float
    seq_bytes: float
    rand_bytes: float
    indirect_bytes: float
    shared_ro_bytes: float
    shared_rw_bytes: float
    local_bytes: float
    atomics: float
    barriers: float

    @property
    def total_bytes(self) -> float:
        """Bytes across all addressing classes."""
        return self.seq_bytes + self.rand_bytes + self.indirect_bytes


@dataclass(frozen=True)
class WorkloadProfile:
    """A complete costed workload: phases + global memory footprint."""

    benchmark: str
    graph_name: str
    phases: tuple[PhaseProfile, ...]
    num_iterations: int
    footprint_bytes: float
    contention: float  # B12: share of data contended via atomics

    def __post_init__(self) -> None:
        if not self.phases:
            raise SimulationError("a workload needs at least one phase")
        if self.footprint_bytes < 0:
            raise SimulationError("footprint must be non-negative")

    @cached_property
    def cost_terms(self) -> dict:
        """Cost-model terms of this profile per accelerator spec, filled
        and read by :mod:`repro.accel.batch`'s fleet pass.

        A cached attribute, not a field, so ``==``, ``hash``, ``repr`` and
        :func:`dataclasses.replace` see only the dataclass fields.
        """
        return {}

    @property
    def total_edges(self) -> float:
        """Edge traversals summed over phases."""
        return sum(phase.edges for phase in self.phases)

    @property
    def total_bytes(self) -> float:
        """Bytes summed over phases."""
        return sum(phase.total_bytes for phase in self.phases)


def footprint_for(num_vertices: float, num_edges: float) -> float:
    """Device-memory bytes for a graph plus kernel state (3 vertex arrays)."""
    return num_edges * BYTES_PER_EDGE + 3.0 * num_vertices * BYTES_PER_VERTEX_STATE


def build_profile(
    trace: KernelTrace,
    bvars: BVariables,
    *,
    target_vertices: float,
    target_edges: float,
    source_vertices: float,
    source_edges: float,
    work_iteration_scale: float = 1.0,
    overhead_iteration_scale: float = 1.0,
) -> WorkloadProfile:
    """Cost a kernel trace and scale it to the target graph size.

    Args:
        trace: raw counts from a kernel run on the source (proxy) graph.
        bvars: the benchmark's B variables — they apportion bytes between
            addressing modes (B7/B8), sharing classes (B9–B11), FP share
            (B6), contended share of item updates (B12), and barrier rate (B13).
        target_vertices / target_edges: characteristics of the graph the
            workload *represents* (paper scale for dataset proxies).
        source_vertices / source_edges: characteristics of the graph the
            trace was measured on.
        work_iteration_scale: extra multiplier on items/edges for kernels
            whose per-iteration work covers the whole graph (Bellman-Ford
            relaxes all edges every round, so a deeper graph multiplies
            total work); 1 for frontier kernels that touch each edge a
            bounded number of times regardless of depth.
        overhead_iteration_scale: ratio of target to source iteration
            counts — scales per-iteration costs (barriers, kernel
            launches) without inflating the work counts.

    Raises:
        SimulationError: on non-positive source sizes.
    """
    if source_vertices <= 0 or source_edges <= 0:
        raise SimulationError("source graph sizes must be positive")
    if target_vertices <= 0 or target_edges <= 0:
        raise SimulationError("target graph sizes must be positive")
    if work_iteration_scale <= 0 or overhead_iteration_scale <= 0:
        raise SimulationError("iteration scales must be positive")

    vertex_scale = target_vertices / source_vertices
    edge_scale = target_edges / source_edges
    iteration_scale = work_iteration_scale

    sharing_total = bvars.b9 + bvars.b10 + bvars.b11
    if sharing_total <= 0:
        ro_share, rw_share, local_share = 0.0, 0.0, 1.0
    else:
        ro_share = bvars.b9 / sharing_total
        rw_share = bvars.b10 / sharing_total
        local_share = bvars.b11 / sharing_total

    seq_share = bvars.b7
    indirect_share = min(bvars.b8, 1.0 - seq_share)
    rand_share = max(0.0, 1.0 - seq_share - indirect_share)

    scaled_iterations = max(
        1, round(trace.num_iterations * overhead_iteration_scale)
    )
    phases = []
    for phase in trace.phases:
        items = phase.items * vertex_scale * iteration_scale
        edges = phase.edges * edge_scale * iteration_scale
        max_par = max(1.0, phase.max_parallelism * vertex_scale)
        ops = edges * _OPS_PER_EDGE + items * _OPS_PER_ITEM
        total_bytes = edges * BYTES_PER_EDGE + items * BYTES_PER_VERTEX_STATE
        # Each barrier call contributes 0.1 to B13 per iteration, so the
        # per-iteration barrier count is B13 * 10 (Section III-C).
        barriers = bvars.b13 * 10.0 * scaled_iterations
        # Frontier and queue phases gather scattered neighborhoods, so a
        # large slice of their nominally index-addressed bytes behaves as
        # random access (coalescers cannot help; caches mostly miss).
        phase_seq = seq_share
        phase_rand = rand_share
        if phase.kind in (PhaseKind.PUSH_POP, PhaseKind.PARETO_DYNAMIC):
            shifted = 0.4 * phase_seq
            phase_seq -= shifted
            phase_rand += shifted
        phases.append(
            PhaseProfile(
                kind=phase.kind,
                items=items,
                edges=edges,
                max_parallelism=max_par,
                work_skew=phase.work_skew,
                int_ops=ops * (1.0 - bvars.b6),
                fp_ops=ops * bvars.b6,
                seq_bytes=total_bytes * phase_seq,
                rand_bytes=total_bytes * phase_rand,
                indirect_bytes=total_bytes * indirect_share,
                shared_ro_bytes=total_bytes * ro_share,
                shared_rw_bytes=total_bytes * rw_share,
                local_bytes=total_bytes * local_share,
                atomics=items * bvars.b12,
                barriers=barriers / max(1, len(trace.phases)),
            )
        )

    return WorkloadProfile(
        benchmark=trace.benchmark,
        graph_name=trace.graph_name,
        phases=tuple(phases),
        num_iterations=scaled_iterations,
        footprint_bytes=footprint_for(target_vertices, target_edges),
        contention=bvars.b12,
    )

"""Deployment: benchmark + dataset → workload profile → simulation.

This is the bridge the whole evaluation stands on.  For a (benchmark,
dataset) pair it:

1. loads the dataset's structural proxy graph and runs the real kernel on
   it (memoised via the trace cache),
2. scales the measured trace to the dataset's *published* Table I
   characteristics (vertex/edge counts linearly; iteration-dependent work
   by the diameter ratio, per kernel semantics),
3. produces the :class:`WorkloadProfile` that
   :func:`repro.accel.simulate` consumes for any (accelerator, M-config).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from repro import obs
from repro.accel.simulator import SimulationResult, simulate
from repro.core.encoding import encode_features
from repro.features.bvars import BVariables
from repro.features.ivars import IVariables, ivars_from_meta
from repro.features.profiles import get_profile
from repro.graph.datasets import get_dataset, load_proxy_graph, proxy_diameter
from repro.kernels.registry import get_kernel
from repro.machine.mvars import MachineConfig
from repro.machine.specs import AcceleratorSpec
from repro.runtime.trace_cache import load_trace, store_trace
from repro.workload.profile import WorkloadProfile, build_profile

__all__ = [
    "Workload",
    "WorkloadLike",
    "as_workload",
    "prepare_workload",
    "prepare_workloads",
    "record_run",
    "run_workload",
    "trace_cache_key",
]

# Bump when kernel instrumentation changes so stale cached traces are
# regenerated rather than silently reused.
_TRACE_VERSION = 2

# Kernels whose per-iteration work covers the whole graph: total work (not
# just per-iteration overhead) grows with the iteration count, which the
# diameter drives.  Frontier kernels touch each edge a bounded number of
# times no matter the depth, so only their overheads scale.
_WORK_SCALES_WITH_DEPTH = {"sssp_bf", "connected_components"}
_OVERHEAD_SCALES_WITH_DEPTH = {"sssp_bf", "connected_components", "bfs", "sssp_delta"}


@dataclass(frozen=True)
class Workload:
    """A fully prepared benchmark-input combination.

    Its two cached attributes are not fields, so ``==``, ``hash``,
    ``repr`` and :func:`dataclasses.replace` see only the five fields, and
    a ``replace`` copy starts with neither.
    """

    benchmark: str
    dataset: str
    bvars: BVariables
    ivars: IVariables
    profile: WorkloadProfile

    @cached_property
    def feature_row(self) -> np.ndarray:
        """The read-only encoded ``(17,)`` feature row, encoded once."""
        row = encode_features(self.bvars, self.ivars)
        row.setflags(write=False)
        return row

    @cached_property
    def kept_decision(self) -> tuple | None:
        """The parts of the last decision the decision layer built for this
        workload, with the cache entry, device tuple and metric they were
        built for; ``None`` until one is kept.

        Written and read by :mod:`repro.runtime.engine.decision` only.  The
        parts never refer back to the workload, so keeping them makes no
        reference cycle.
        """
        return None


def trace_cache_key(benchmark: str, dataset: str) -> str:
    """Versioned cache key for a proxy-graph kernel trace.

    The key embeds ``_TRACE_VERSION``, so bumping the version orphans
    every previously stored entry: stale traces become cache misses and
    are regenerated instead of silently reused.
    """
    return f"trace-{_TRACE_VERSION}-{benchmark}-{dataset}"


def _proxy_trace(benchmark: str, dataset: str):
    """Run (or recall) the kernel on the dataset proxy graph."""
    key = trace_cache_key(benchmark, dataset)
    cached = load_trace(key)
    if cached is not None:
        return cached
    with obs.span("deploy.proxy_kernel", benchmark=benchmark, dataset=dataset):
        graph = load_proxy_graph(dataset)
        trace = get_kernel(benchmark).run(graph).trace
    store_trace(key, trace)
    return trace


def prepare_workload(benchmark: str, dataset: str) -> Workload:
    """Build the scaled workload for a benchmark-input combination.

    Raises:
        UnknownBenchmarkError / UnknownDatasetError: on bad names.
    """
    with obs.span("deploy.prepare_workload", benchmark=benchmark, dataset=dataset):
        return _prepare_workload(benchmark, dataset)


def _prepare_workload(benchmark: str, dataset: str) -> Workload:
    spec = get_dataset(dataset)
    graph = load_proxy_graph(spec.name)
    trace = _proxy_trace(benchmark, spec.name)

    depth_ratio = max(0.25, spec.paper.diameter / proxy_diameter(spec.name))
    kernel_key = trace.benchmark
    work_scale = depth_ratio if kernel_key in _WORK_SCALES_WITH_DEPTH else 1.0
    overhead_scale = (
        depth_ratio if kernel_key in _OVERHEAD_SCALES_WITH_DEPTH else 1.0
    )

    bvars = get_profile(benchmark)
    profile = build_profile(
        trace,
        bvars,
        target_vertices=float(spec.paper.num_vertices),
        target_edges=float(spec.paper.num_edges),
        source_vertices=float(graph.num_vertices),
        source_edges=float(max(graph.num_edges, 1)),
        work_iteration_scale=work_scale,
        overhead_iteration_scale=overhead_scale,
    )
    return Workload(
        benchmark=trace.benchmark,
        dataset=spec.name,
        bvars=bvars,
        ivars=ivars_from_meta(spec.paper),
        profile=profile,
    )


#: What the batch entry points accept: a prepared :class:`Workload` or a
#: raw ``(benchmark, dataset)`` pair still to be prepared.
WorkloadLike = Union[Workload, "tuple[str, str]"]


def as_workload(item: WorkloadLike) -> Workload:
    """Coerce one batch item, preparing raw pairs on demand."""
    if isinstance(item, Workload):
        return item
    return prepare_workload(*item)


def prepare_workloads(items: Iterable[WorkloadLike]) -> list[Workload]:
    """Materialize any iterable of batch items into prepared workloads.

    Generators are consumed exactly once; the returned list is safe to
    iterate repeatedly (the batch paths need several passes).
    """
    return [as_workload(item) for item in items]


def run_workload(
    workload: Workload, spec: AcceleratorSpec, config: MachineConfig
) -> SimulationResult:
    """Deploy a prepared workload on one accelerator configuration."""
    return record_run(spec, simulate(workload.profile, spec, config))


def record_run(spec: AcceleratorSpec, result: SimulationResult) -> SimulationResult:
    """Count one executed deployment on ``spec`` (``deploy.runs`` and
    ``deploy.simulated_time_ms`` under ``REPRO_OBS``) and return its result."""
    if obs.enabled():
        obs.counter("deploy.runs", accelerator=spec.name)
        obs.histogram("deploy.simulated_time_ms", result.time_ms)
    return result

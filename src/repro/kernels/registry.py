"""Name-keyed kernel registry (the nine Figure 5 benchmarks)."""

from __future__ import annotations

from repro.features.profiles import normalize_benchmark_name
from repro.kernels.base import Kernel
from repro.kernels.bfs import BreadthFirstSearch
from repro.kernels.community import CommunityDetection
from repro.kernels.connected_components import ConnectedComponents
from repro.kernels.dfs import DepthFirstSearch
from repro.kernels.pagerank import PageRank
from repro.kernels.pagerank_dp import PageRankDelta
from repro.kernels.sssp_bf import SsspBellmanFord
from repro.kernels.sssp_delta import SsspDeltaStepping
from repro.kernels.triangle_counting import TriangleCounting

__all__ = ["KERNELS", "kernel_names", "normalize_benchmark_name", "get_kernel"]

KERNELS: dict[str, type[Kernel]] = {
    cls.name: cls
    for cls in [
        SsspBellmanFord,
        SsspDeltaStepping,
        BreadthFirstSearch,
        DepthFirstSearch,
        PageRank,
        PageRankDelta,
        TriangleCounting,
        CommunityDetection,
        ConnectedComponents,
    ]
}


def kernel_names() -> list[str]:
    """Canonical benchmark keys, in the paper's Figure 5 order."""
    return list(KERNELS)


def get_kernel(name: str) -> Kernel:
    """Instantiate a kernel by any spelling :func:`normalize_benchmark_name`
    accepts.

    Raises:
        UnknownBenchmarkError: when the name is not registered.
    """
    return KERNELS[normalize_benchmark_name(name)]()

"""Breadth-first search — frontier-expanding ("Pareto-division") traversal.

The paper classifies BFS as pure B3 (dynamically growing pareto fronts):
each level's frontier is the parallel work unit, so available parallelism
swings with the frontier width — tiny on road networks, explosive on
social graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.diameter import bfs_levels
from repro.kernels.base import Kernel, KernelResult, graph_skew
from repro.workload.phases import PhaseKind
from repro.workload.profile import KernelTrace, PhaseTrace

__all__ = ["BreadthFirstSearch"]


class BreadthFirstSearch(Kernel):
    """Level-synchronous BFS with per-level frontier instrumentation."""

    name = "bfs"

    def run(self, graph: CSRGraph, source: int = 0) -> KernelResult:
        """Compute hop levels from ``source`` (-1 for unreachable).

        Each level's frontier is expanded once, so the per-level counts
        follow from the levels: the items are the reached vertices, the
        edges their out-degrees, and the widest frontier the fullest level.

        Raises:
            GraphError: when the source is out of range.
        """
        levels = bfs_levels(graph, source)
        reached = levels >= 0
        total_items = float(np.count_nonzero(reached))
        total_edges = float(graph.out_degree()[reached].sum())
        max_frontier = float(np.bincount(levels[reached]).max())
        iterations = max(1, int(levels.max()))
        trace = KernelTrace(
            benchmark=self.name,
            graph_name=graph.name,
            phases=(
                PhaseTrace(
                    kind=PhaseKind.PARETO_DYNAMIC,
                    items=total_items,
                    edges=total_edges,
                    max_parallelism=max_frontier,
                    work_skew=graph_skew(graph),
                ),
            ),
            num_iterations=iterations,
        )
        return KernelResult(
            output=levels,
            trace=trace,
            stats={
                "levels": iterations,
                "max_frontier": max_frontier,
                "reached": total_items,
            },
        )

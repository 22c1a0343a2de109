"""Delta PageRank (PageRank-DP) — incremental, frontier-driven variant.

Only vertices whose rank changed more than the tolerance propagate deltas,
so later iterations touch shrinking active sets.  This is the more
data-parallel sibling in the paper's B profiles (B1 = 0.8).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, edge_positions
from repro.kernels.base import Kernel, KernelResult, graph_skew
from repro.workload.phases import PhaseKind
from repro.workload.profile import KernelTrace, PhaseTrace

__all__ = ["PageRankDelta"]


class PageRankDelta(Kernel):
    """Delta-propagating PageRank; converges to the power-iteration fixed
    point but only processes active vertices each round."""

    name = "pagerank_dp"

    def run(
        self,
        graph: CSRGraph,
        damping: float = 0.85,
        tolerance: float = 1e-8,
        max_iterations: int = 60,
    ) -> KernelResult:
        """Compute PageRank via delta propagation.

        Raises:
            GraphError: for damping outside (0, 1) or empty graphs.
        """
        if not 0.0 < damping < 1.0:
            raise GraphError("damping must be in (0, 1)")
        num_vertices = graph.num_vertices
        if num_vertices == 0:
            raise GraphError("PageRank-DP needs a non-empty graph")

        indptr, indices = graph.indptr, graph.indices
        out_degree = np.asarray(graph.out_degree(), dtype=np.float64)
        safe_degree = np.where(out_degree == 0, 1.0, out_degree)

        base = (1.0 - damping) / num_vertices
        ranks = np.full(num_vertices, base)
        deltas = np.full(num_vertices, base)
        active = np.arange(num_vertices, dtype=np.int64)

        iterations = 0
        total_items = 0.0
        total_edges = 0.0
        max_active = float(num_vertices)
        active_threshold = tolerance
        while active.size and iterations < max_iterations:
            iterations += 1
            total_items += active.size
            starts = indptr[active]
            degs = indptr[active + 1] - starts
            total_edges += float(degs.sum())
            contrib = damping * deltas[active] / safe_degree[active]
            new_deltas = np.zeros(num_vertices)
            if degs.sum():
                gather = indices[edge_positions(starts, degs)]
                weights_rep = np.repeat(contrib, degs)
                # bincount replaces the np.add.at scatter (same semantics
                # for repeated destinations, an order of magnitude faster).
                new_deltas = np.bincount(
                    gather, weights=weights_rep, minlength=num_vertices
                )
            ranks = ranks + new_deltas
            deltas = new_deltas
            active = np.flatnonzero(np.abs(deltas) > active_threshold)
            max_active = max(max_active, float(active.size))

        # Normalize to a distribution (dangling mass is not recirculated in
        # the delta formulation, so renormalize like Pannotia's variant).
        total = ranks.sum()
        if total > 0:
            ranks = ranks / total

        skew = graph_skew(graph)
        scatter = PhaseTrace(
            kind=PhaseKind.VERTEX_DIVISION,
            items=total_items,
            edges=total_edges,
            max_parallelism=max_active,
            work_skew=skew,
        )
        reduce_phase = PhaseTrace(
            kind=PhaseKind.REDUCTION,
            items=total_items * 0.25,
            edges=0.0,
            max_parallelism=max(max_active / 2.0, 1.0),
            work_skew=0.0,
        )
        trace = KernelTrace(
            benchmark=self.name,
            graph_name=graph.name,
            phases=(scatter, reduce_phase),
            num_iterations=max(1, iterations),
        )
        return KernelResult(
            output=ranks,
            trace=trace,
            stats={"iterations": iterations, "sum": float(ranks.sum())},
        )

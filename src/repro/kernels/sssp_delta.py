"""Δ-stepping single-source shortest paths (SSSP-Delta).

The GAP-suite formulation the paper compares against SSSP-BF: vertices are
binned into distance buckets of width Δ; the smallest non-empty bucket is
the frontier, relaxed repeatedly until it stabilizes (light edges), with
bucket push/pop traffic and a reduction selecting the next bucket.  The
three structures map to the paper's B-profile: vertex division (relaxing),
push-pop (bucket maintenance), reduction (bucket selection).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, edge_positions
from repro.kernels.base import Kernel, KernelResult, graph_skew
from repro.workload.phases import PhaseKind
from repro.workload.profile import KernelTrace, PhaseTrace

__all__ = ["SsspDeltaStepping"]


class SsspDeltaStepping(Kernel):
    """Bucketed Δ-stepping shortest paths."""

    name = "sssp_delta"

    def run(
        self,
        graph: CSRGraph,
        source: int = 0,
        delta: float | None = None,
        max_rounds: int | None = None,
    ) -> KernelResult:
        """Compute shortest distances from ``source``.

        Args:
            graph: weighted directed graph (non-negative weights assumed).
            source: start vertex.
            delta: bucket width; defaults to the mean edge weight.
            max_rounds: safety cap on bucket rounds.

        Raises:
            GraphError: when the source is out of range or delta invalid.
        """
        if not 0 <= source < graph.num_vertices:
            raise GraphError(f"source {source} out of range")
        if delta is None:
            delta = float(graph.weights.mean()) if graph.num_edges else 1.0
        if delta <= 0:
            raise GraphError("delta must be positive")
        if max_rounds is None:
            max_rounds = 4 * graph.num_vertices + 16

        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        num_vertices = graph.num_vertices
        dist = np.full(num_vertices, np.inf)
        dist[source] = 0.0

        total_relax_items = 0.0
        total_relax_edges = 0.0
        pushes = 1.0
        pops = 0.0
        max_frontier = 1.0
        rounds = 0
        bucket_scans = 0.0

        current_bucket = 0
        while rounds < max_rounds:
            # Reduction: find the smallest non-empty bucket >= current.
            finite = np.isfinite(dist)
            bucket_ids = np.full(num_vertices, -1, dtype=np.int64)
            bucket_ids[finite] = (dist[finite] / delta).astype(np.int64)
            settled = bucket_ids < current_bucket
            candidates = finite & ~settled
            # GAP keeps explicit bucket lists, so selection only touches
            # the unsettled vertices, not the whole vertex array.
            bucket_scans += int(candidates.sum())
            if not candidates.any():
                break
            current_bucket = int(bucket_ids[candidates].min())
            frontier = np.flatnonzero(bucket_ids == current_bucket)

            # Relax the bucket to a fixed point (light-edge loop).
            inner_guard = 0
            while frontier.size and inner_guard < num_vertices + 1:
                inner_guard += 1
                rounds += 1
                pops += frontier.size
                max_frontier = max(max_frontier, float(frontier.size))
                total_relax_items += frontier.size
                starts = indptr[frontier]
                degs = indptr[frontier + 1] - starts
                total_relax_edges += float(degs.sum())
                if degs.sum() == 0:
                    break
                positions = edge_positions(starts, degs)
                gather = indices[positions]
                wts = weights[positions]
                candidate = np.repeat(dist[frontier], degs) + wts
                old = dist[gather].copy()
                np.minimum.at(dist, gather, candidate)
                improved = np.unique(gather[dist[gather] < old])
                pushes += improved.size
                # Only vertices pulled back into the current bucket re-run.
                frontier = improved[
                    (dist[improved] / delta).astype(np.int64) == current_bucket
                ]
            current_bucket += 1

        skew = graph_skew(graph)
        iterations = max(1, rounds)
        relax = PhaseTrace(
            kind=PhaseKind.VERTEX_DIVISION,
            items=total_relax_items,
            edges=total_relax_edges,
            max_parallelism=max_frontier,
            work_skew=skew,
        )
        bucket_ops = PhaseTrace(
            kind=PhaseKind.PUSH_POP,
            items=pushes + pops,
            edges=total_relax_edges * 0.5,
            max_parallelism=max_frontier,
            work_skew=skew,
        )
        selection = PhaseTrace(
            kind=PhaseKind.REDUCTION,
            items=bucket_scans,
            edges=0.0,
            max_parallelism=float(max(num_vertices // 2, 1)),
            work_skew=0.0,
        )
        trace = KernelTrace(
            benchmark=self.name,
            graph_name=graph.name,
            phases=(relax, bucket_ops, selection),
            num_iterations=iterations,
        )
        return KernelResult(
            output=dist,
            trace=trace,
            stats={
                "rounds": float(rounds),
                "delta": float(delta),
                "max_frontier": max_frontier,
            },
        )

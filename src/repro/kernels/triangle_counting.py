"""Triangle counting (Tri.Cnt.) — reduction-heavy with adjacency reuse.

Counts triangles in the symmetrized graph using the degree-ordered
orientation: each undirected edge (u, v) is directed from the lower-rank
endpoint to the higher-rank one, and triangles are intersections of
oriented out-neighborhoods.  The sparse-matrix identity
``triangles = sum(L^2 ∘ L) `` (L the oriented adjacency) implements the
intersections with SciPy at NumPy speed while the trace records the same
per-vertex intersection work the loop formulation would do.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.base import Kernel, KernelResult, graph_skew
from repro.workload.phases import PhaseKind
from repro.workload.profile import KernelTrace, PhaseTrace

__all__ = ["TriangleCounting"]


class TriangleCounting(Kernel):
    """Exact triangle count over the symmetrized simple graph."""

    name = "triangle_counting"

    def run(self, graph: CSRGraph) -> KernelResult:
        """Count triangles; the output is an integer count."""
        und = graph.to_undirected()
        num_vertices = und.num_vertices
        edges = und.edges()
        # Drop self loops; keep one orientation per undirected pair using
        # the (degree, id) total order so hubs sit late (bounds work).
        degrees = np.asarray(und.out_degree(), dtype=np.int64)
        src, dst = edges[:, 0], edges[:, 1]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        rank = np.argsort(np.argsort(degrees * np.int64(num_vertices + 1)
                                     + np.arange(num_vertices)))
        forward = rank[src] < rank[dst]
        osrc, odst = src[forward], dst[forward]

        if osrc.size == 0 or num_vertices == 0:
            count = 0
            wedge_checks = 0.0
        else:
            # Imported here so that importing the kernel registry (every
            # serving process does) does not load SciPy.
            from scipy import sparse

            oriented = sparse.csr_matrix(
                (np.ones(osrc.size), (osrc, odst)),
                shape=(num_vertices, num_vertices),
            )
            paths = oriented @ oriented
            count = int((paths.multiply(oriented)).sum())
            wedge_checks = float(paths.nnz)

        skew = graph_skew(und)
        enumerate_phase = PhaseTrace(
            kind=PhaseKind.VERTEX_DIVISION,
            items=float(max(num_vertices, 1)),
            edges=float(osrc.size),
            max_parallelism=float(max(num_vertices, 1)),
            work_skew=skew,
        )
        intersect_phase = PhaseTrace(
            kind=PhaseKind.REDUCTION,
            items=max(wedge_checks, 1.0),
            edges=max(wedge_checks, float(osrc.size)),
            max_parallelism=float(max(osrc.size, 1)),
            work_skew=min(1.0, skew + 0.2),
        )
        trace = KernelTrace(
            benchmark=self.name,
            graph_name=graph.name,
            phases=(enumerate_phase, intersect_phase),
            num_iterations=1,
        )
        return KernelResult(
            output=count,
            trace=trace,
            stats={"triangles": float(count), "wedges": wedge_checks},
        )

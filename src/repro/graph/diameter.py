"""Graph diameter: exact BFS-based and sampled approximations.

The paper obtains diameter (I4) "alongside input graphs or using runtime
approximations".  We provide both paths: an exact all-pairs eccentricity via
repeated BFS (fine for test-scale graphs), and the double-sweep lower-bound
approximation commonly used at runtime, which is what the dataset proxies
rely on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, edge_positions

__all__ = ["bfs_levels", "eccentricity", "exact_diameter", "approximate_diameter"]


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex; -1 for unreachable."""
    if not 0 <= source < graph.num_vertices:
        raise GraphError(f"source {source} out of range")
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    # Scratch for deduping a level: each fresh vertex claims its slot,
    # and the one occurrence whose claim stuck survives.  Only entries at
    # fresh vertices are written and read, so a level costs its own size.
    claim = np.empty(graph.num_vertices, dtype=np.int64)
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        gather = indices[edge_positions(starts, counts)]
        fresh = gather[levels[gather] == -1]
        if fresh.size == 0:
            break
        slots = np.arange(fresh.size)
        claim[fresh] = slots
        fresh = fresh[claim[fresh] == slots]
        levels[fresh] = depth
        frontier = fresh
    return levels


def eccentricity(graph: CSRGraph, source: int) -> int:
    """Largest finite hop distance from ``source`` (0 if nothing reachable)."""
    levels = bfs_levels(graph, source)
    reachable = levels[levels >= 0]
    return int(reachable.max()) if reachable.size else 0


def exact_diameter(graph: CSRGraph) -> int:
    """Exact diameter: max eccentricity over all vertices.

    Considers only finite distances, so disconnected graphs report the
    largest intra-component eccentricity — matching how road-network
    diameters are reported in the paper's Table I.
    """
    best = 0
    for vertex in range(graph.num_vertices):
        best = max(best, eccentricity(graph, vertex))
    return best


def approximate_diameter(
    graph: CSRGraph, *, num_sweeps: int = 4, seed: int = 0
) -> int:
    """Double-sweep lower bound on the diameter.

    From each of ``num_sweeps`` random starting vertices, BFS to the
    farthest vertex, then BFS again from there; the second eccentricity is a
    lower bound on the true diameter that is exact on trees and tight in
    practice on road and mesh networks.
    """
    if graph.num_vertices == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(max(1, num_sweeps)):
        start = int(rng.integers(graph.num_vertices))
        levels = bfs_levels(graph, start)
        reachable = np.flatnonzero(levels >= 0)
        if reachable.size <= 1:
            continue
        # The first sweep's own depth is already a lower bound — on
        # directed graphs the far endpoint may reach nothing back.
        best = max(best, int(levels[reachable].max()))
        far = int(reachable[np.argmax(levels[reachable])])
        best = max(best, eccentricity(graph, far))
    return best

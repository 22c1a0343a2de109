"""Random geometric graph generator.

Proxy for the ``rgg-n-24`` input in Table I: vertices are points in the
unit square, connected when within a radius.  RGGs combine moderate uniform
degree with very large diameter (Table I reports 2622), making them the
extreme point of the paper's diameter normalization.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.builders import from_edge_array
from repro.graph.csr import CSRGraph

__all__ = ["random_geometric_graph"]


def random_geometric_graph(
    num_vertices: int,
    radius: float | None = None,
    *,
    target_avg_degree: float | None = None,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Generate a random geometric graph in the unit square.

    Exactly one of ``radius`` and ``target_avg_degree`` must be given; the
    latter derives the radius from the expected-degree formula
    ``deg = pi * r^2 * (V - 1)``.

    Raises:
        GraphError: when both or neither radius specification is given, or
            the vertex count is non-positive.
    """
    if num_vertices <= 0:
        raise GraphError("num_vertices must be positive")
    if (radius is None) == (target_avg_degree is None):
        raise GraphError("give exactly one of radius / target_avg_degree")
    if radius is None:
        if target_avg_degree <= 0:
            raise GraphError("target_avg_degree must be positive")
        radius = float(np.sqrt(target_avg_degree / (np.pi * max(num_vertices - 1, 1))))
    if radius <= 0:
        raise GraphError("radius must be positive")

    # Imported here, so a process that never builds a geometric graph
    # does not load scipy.spatial (and the scipy.special it pulls in).
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    points = rng.random((num_vertices, 2))
    tree = cKDTree(points)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    edges = np.vstack([pairs, pairs[:, ::-1]]).astype(np.int64)
    # Euclidean lengths as weights, matching geometric routing costs.
    if pairs.size:
        lengths = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
        weights = np.concatenate([lengths, lengths])
    else:
        weights = None
    return from_edge_array(
        num_vertices,
        edges,
        weights,
        name=name or f"rgg-v{num_vertices}-s{seed}",
        dedupe=True,
    )

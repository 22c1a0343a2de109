"""Constructors that turn edge lists and adjacency data into CSR graphs."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "from_edge_array",
    "from_edge_list",
    "from_adjacency",
    "empty_graph",
]


def from_edge_array(
    num_vertices: int,
    edges: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    name: str = "graph",
    dedupe: bool = False,
    drop_self_loops: bool = False,
) -> CSRGraph:
    """Build a CSR graph from an ``(E, 2)`` array of (source, destination).

    Args:
        num_vertices: total vertex count (must exceed every endpoint id).
        edges: integer array of shape ``(E, 2)``.
        weights: optional per-edge weights; defaults to unit weights.
        name: graph identifier.
        dedupe: drop parallel duplicate edges, keeping the first occurrence.
        drop_self_loops: drop edges whose endpoints coincide.

    Raises:
        GraphError: on malformed shapes or out-of-range endpoints.
    """
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must have shape (E, 2), got {edges.shape}")
    if weights is None:
        weights = np.ones(edges.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (edges.shape[0],):
            raise GraphError("weights must align with edges")
    if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
        raise GraphError("edge endpoint out of range")

    # Sorting the packed key orders the edges by (source, destination);
    # V**2 fits in int64 for any V whose indptr fits in memory.
    span = np.int64(max(num_vertices, 1))
    keys = edges[:, 0] * span + edges[:, 1]
    if drop_self_loops:
        keep = edges[:, 0] != edges[:, 1]
        keys, weights = keys[keep], weights[keep]
    if dedupe and keys.size:
        # Any order within a run of equal keys: the run's smallest input
        # position is its first occurrence, whose weight it keeps.
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys = keys[starts]
        weights = weights[np.minimum.reduceat(order, starts)]
    else:
        order = np.argsort(keys, kind="stable")
        keys, weights = keys[order], weights[order]
    indptr = np.searchsorted(keys, np.arange(num_vertices + 1, dtype=np.int64) * span)
    return CSRGraph(indptr, keys % span, weights, name=name)


def from_edge_list(
    num_vertices: int,
    edges: Iterable[tuple[int, int]] | Iterable[tuple[int, int, float]],
    *,
    name: str = "graph",
    dedupe: bool = False,
    drop_self_loops: bool = False,
) -> CSRGraph:
    """Build a CSR graph from an iterable of 2- or 3-tuples.

    Three-element tuples carry an explicit weight; two-element tuples get
    unit weight.  Mixed iterables are rejected.
    """
    rows = list(edges)
    if not rows:
        return empty_graph(num_vertices, name=name)
    widths = {len(row) for row in rows}
    if widths == {2}:
        array = np.asarray(rows, dtype=np.int64)
        weights = None
    elif widths == {3}:
        raw = np.asarray(rows, dtype=np.float64)
        array = raw[:, :2].astype(np.int64)
        if np.any(array.astype(np.float64) != raw[:, :2]):
            raise GraphError("edge endpoints must be integers")
        weights = raw[:, 2]
    else:
        raise GraphError("edge tuples must uniformly have 2 or 3 elements")
    return from_edge_array(
        num_vertices,
        array,
        weights,
        name=name,
        dedupe=dedupe,
        drop_self_loops=drop_self_loops,
    )


def from_adjacency(
    adjacency: Sequence[Sequence[int]], *, name: str = "graph"
) -> CSRGraph:
    """Build a CSR graph from an adjacency-list representation."""
    num_vertices = len(adjacency)
    counts = np.fromiter(
        (len(nbrs) for nbrs in adjacency), dtype=np.int64, count=num_vertices
    )
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if int(indptr[-1]):
        indices = np.concatenate(
            [np.asarray(nbrs, dtype=np.int64) for nbrs in adjacency if len(nbrs)]
        )
    else:
        indices = np.zeros(0, dtype=np.int64)
    weights = np.ones(indices.size, dtype=np.float64)
    return CSRGraph(indptr, indices, weights, name=name)


def empty_graph(num_vertices: int, *, name: str = "empty") -> CSRGraph:
    """A graph with ``num_vertices`` isolated vertices and no edges."""
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    return CSRGraph(
        np.zeros(num_vertices + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.float64),
        name=name,
    )

"""Compressed Sparse Row (CSR) graph representation.

All graph kernels in this package operate on :class:`CSRGraph`, a compact
adjacency structure backed by NumPy arrays.  This mirrors the layout used by
the graph frameworks the paper draws its benchmarks from (CRONO, GAP,
Pannotia), where the vertex array indexes into a contiguous edge array.

The structure is immutable after construction: the arrays are set to
non-writeable so kernels cannot accidentally mutate a shared input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph", "edge_positions"]


def edge_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] .. starts[i] + counts[i] - 1`` for each ``i``, in order.

    With ``starts = indptr[frontier]`` and ``counts`` the frontier's
    out-degrees, ``indices[edge_positions(starts, counts)]`` gathers every
    out-neighbor of the frontier in one step, in the order of concatenating
    the per-vertex slices ``indices[indptr[v]:indptr[v + 1]]``.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in CSR form, optionally edge-weighted.

    Attributes:
        indptr: ``int64`` array of length ``num_vertices + 1``.  Outgoing
            edges of vertex ``v`` occupy ``indices[indptr[v]:indptr[v + 1]]``.
        indices: ``int64`` array of destination vertex ids, length
            ``num_edges``.
        weights: ``float64`` array of edge weights aligned with ``indices``.
            Unweighted graphs carry unit weights so shortest-path kernels
            degenerate to hop counts.
        name: optional human-readable identifier used in reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = field(default="graph", compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if indptr.size == 0:
            raise GraphError("indptr must contain at least one entry")
        if indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if indices.size != indptr[-1]:
            raise GraphError(
                f"indices length {indices.size} does not match "
                f"indptr[-1] == {int(indptr[-1])}"
            )
        if weights.size != indices.size:
            raise GraphError(
                f"weights length {weights.size} does not match "
                f"edge count {indices.size}"
            )
        if indptr.size > 1 and np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise GraphError("edge destination out of range")
        for array in (indptr, indices, weights):
            array.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)

    @property
    def num_vertices(self) -> int:
        """Number of vertices, including isolated ones."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.indices.size

    def out_degree(self, vertex: int | None = None) -> np.ndarray | int:
        """Out-degree of ``vertex``, or the full degree array when omitted."""
        degrees = np.diff(self.indptr)
        if vertex is None:
            return degrees
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(f"vertex {vertex} out of range")
        return int(degrees[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """Destination ids of ``vertex``'s outgoing edges (read-only view)."""
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(f"vertex {vertex} out of range")
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def edge_weights(self, vertex: int) -> np.ndarray:
        """Weights of ``vertex``'s outgoing edges, aligned with neighbors."""
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(f"vertex {vertex} out of range")
        return self.weights[self.indptr[vertex] : self.indptr[vertex + 1]]

    def edges(self) -> np.ndarray:
        """All edges as an ``(num_edges, 2)`` array of (source, destination).

        The array is built once and cached (``reverse()``, symmetrization,
        and several kernels all call this); it is non-writeable like the
        CSR arrays, so sharing it cannot break immutability.
        """
        cached = self.__dict__.get("_edges_cache")
        if cached is None:
            sources = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
            )
            cached = np.column_stack([sources, self.indices])
            cached.setflags(write=False)
            object.__setattr__(self, "_edges_cache", cached)
        return cached

    def reverse(self) -> "CSRGraph":
        """The transpose graph (every edge direction flipped)."""
        edges = self.edges()
        order = np.argsort(edges[:, 1], kind="stable")
        rev_sources = edges[order, 1]
        rev_dests = edges[order, 0]
        rev_weights = self.weights[order]
        counts = np.bincount(rev_sources, minlength=self.num_vertices)
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(indptr, rev_dests, rev_weights, name=f"{self.name}.rev")

    def to_undirected(self) -> "CSRGraph":
        """Symmetrized copy: each edge also present in the reverse direction.

        Parallel duplicate edges created by symmetrization are removed,
        keeping the first-seen weight for each (source, destination) pair.
        """
        from repro.graph.builders import from_edge_array  # builders imports csr

        edges = self.edges()
        return from_edge_array(
            self.num_vertices,
            np.vstack([edges, edges[:, ::-1]]),
            np.concatenate([self.weights, self.weights]),
            name=f"{self.name}.sym",
            dedupe=True,
        )

    def memory_footprint_bytes(self) -> int:
        """Bytes needed to hold the CSR arrays plus one vertex state array.

        This is what the streaming layer compares against an accelerator's
        device memory to decide whether Stinger-style chunking is needed.
        """
        state = 8 * self.num_vertices
        return (
            self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes + state
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges})"
        )

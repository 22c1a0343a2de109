"""Differential tests: the one-sort CSR build and the one-gather BFS equal
the algorithms they replaced, array for array.

The references are the earlier implementations, kept here as they were:
the build deduped with ``np.unique(return_index)`` and ``first.sort()``,
ordered with ``lexsort`` and gathered ``(E, 2)`` rows; the BFS
concatenated one Python slice per frontier vertex and deduped each level
with ``np.unique``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.graph import diameter
from repro.graph.builders import from_edge_array
from repro.graph.csr import CSRGraph, edge_positions
from repro.graph.datasets import DATASETS, load_proxy_graph, proxy_diameter
from repro.graph.generators import make_graph
from repro.kernels.bfs import BreadthFirstSearch


def reference_build(num_vertices, edges, weights=None, *, dedupe, drop_self_loops):
    """The unique + ``first.sort()`` + ``lexsort`` build, as CSR arrays."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if weights is None:
        weights = np.ones(edges.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    if drop_self_loops and edges.size:
        keep = edges[:, 0] != edges[:, 1]
        edges, weights = edges[keep], weights[keep]
    if dedupe and edges.size:
        keys = edges[:, 0] * np.int64(max(num_vertices, 1)) + edges[:, 1]
        _, first = np.unique(keys, return_index=True)
        first.sort()
        edges, weights = edges[first], weights[first]
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    weights = weights[order]
    counts = np.bincount(edges[:, 0], minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, edges[:, 1].copy(), weights


def reference_bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """The per-vertex-slice BFS."""
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        counts = ends - starts
        if counts.sum() == 0:
            break
        gather = np.concatenate(
            [indices[s:e] for s, e in zip(starts, ends) if e > s]
        )
        fresh = gather[levels[gather] == -1]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        levels[fresh] = depth
        frontier = fresh
    return levels


def reference_bfs_counts(graph: CSRGraph, source: int) -> tuple:
    """The BFS kernel's per-level loop: (items, edges, widest, levels)."""
    indptr, indices = graph.indptr, graph.indices
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    total_items = 0.0
    total_edges = 0.0
    max_frontier = 1.0
    depth = 0
    while frontier.size:
        total_items += frontier.size
        max_frontier = max(max_frontier, float(frontier.size))
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        total_edges += float((ends - starts).sum())
        if (ends - starts).sum() == 0:
            break
        gather = np.concatenate(
            [indices[s:e] for s, e in zip(starts, ends) if e > s]
        )
        fresh = np.unique(gather[levels[gather] == -1])
        if fresh.size == 0:
            break
        depth += 1
        levels[fresh] = depth
        frontier = fresh
    return total_items, total_edges, max_frontier, max(1, depth)


def assert_same_arrays(got, want) -> None:
    for array, expected in zip(got, want):
        assert array.dtype == expected.dtype
        assert np.array_equal(array, expected)


def csr_arrays(graph: CSRGraph) -> tuple:
    return graph.indptr, graph.indices, graph.weights


def random_edges(seed: int) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Edges over a small pair pool, so pairs repeat with new weights,
    with self-loops and, often, trailing vertices nothing touches."""
    rng = np.random.default_rng(seed)
    num_vertices = int(rng.integers(1, 40))
    touched = int(rng.integers(1, num_vertices + 1))
    pool = rng.integers(0, touched, size=(int(rng.integers(1, 30)), 2))
    loops = rng.integers(0, touched, size=int(rng.integers(0, 5)))
    pool = np.vstack([pool, np.column_stack([loops, loops])])
    edges = pool[rng.integers(0, pool.shape[0], size=int(rng.integers(0, 120)))]
    weights = None if seed % 3 == 0 else rng.random(edges.shape[0]) * 10.0
    return num_vertices, edges, weights


@pytest.mark.parametrize("drop_self_loops", [False, True])
@pytest.mark.parametrize("dedupe", [False, True])
class TestFromEdgeArrayMatchesReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_edge_arrays(self, seed, dedupe, drop_self_loops):
        num_vertices, edges, weights = random_edges(seed)
        flags = dict(dedupe=dedupe, drop_self_loops=drop_self_loops)
        graph = from_edge_array(num_vertices, edges, weights, **flags)
        assert_same_arrays(
            csr_arrays(graph), reference_build(num_vertices, edges, weights, **flags)
        )

    @pytest.mark.parametrize("num_vertices", [0, 1, 5])
    def test_empty_input(self, num_vertices, dedupe, drop_self_loops):
        edges = np.zeros((0, 2), dtype=np.int64)
        flags = dict(dedupe=dedupe, drop_self_loops=drop_self_loops)
        graph = from_edge_array(num_vertices, edges, **flags)
        assert_same_arrays(
            csr_arrays(graph), reference_build(num_vertices, edges, **flags)
        )

    def test_only_self_loops(self, dedupe, drop_self_loops):
        edges = np.array([[2, 2], [0, 0], [2, 2]])
        weights = np.array([1.5, 2.5, 3.5])
        flags = dict(dedupe=dedupe, drop_self_loops=drop_self_loops)
        graph = from_edge_array(4, edges, weights, **flags)
        assert_same_arrays(
            csr_arrays(graph), reference_build(4, edges, weights, **flags)
        )


_GENERATOR_MODULES = ("cage", "kronecker", "rgg", "road", "social", "uniform")


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_proxy_generator_edges_match_reference(name, monkeypatch):
    """Each proxy's raw edges, captured at its ``from_edge_array`` call."""
    calls = []

    def capture(num_vertices, edges, weights=None, **options):
        graph = from_edge_array(num_vertices, edges, weights, **options)
        calls.append((num_vertices, edges, weights, options, graph))
        return graph

    for module in _GENERATOR_MODULES:
        monkeypatch.setattr(
            importlib.import_module(f"repro.graph.generators.{module}"),
            "from_edge_array",
            capture,
        )
    spec = DATASETS[name]
    make_graph(spec.family, **spec.proxy_params)
    ((num_vertices, edges, weights, options, graph),) = calls
    flags = {
        "dedupe": options.get("dedupe", False),
        "drop_self_loops": options.get("drop_self_loops", False),
    }
    expected = reference_build(num_vertices, edges, weights, **flags)
    assert_same_arrays(csr_arrays(graph), expected)
    assert_same_arrays(csr_arrays(load_proxy_graph(name)), expected)


def test_to_undirected_matches_reference(random_graph):
    edges = random_graph.edges()
    both = np.vstack([edges, edges[:, ::-1]])
    weights = np.concatenate([random_graph.weights, random_graph.weights])
    sym = random_graph.to_undirected()
    assert sym.name == f"{random_graph.name}.sym"
    assert_same_arrays(
        csr_arrays(sym),
        reference_build(
            random_graph.num_vertices, both, weights, dedupe=True, drop_self_loops=False
        ),
    )


def random_directed_graph(seed: int) -> CSRGraph:
    """Sparse enough that many vertices are unreachable from any source."""
    rng = np.random.default_rng(seed)
    num_vertices = int(rng.integers(2, 120))
    num_edges = int(rng.integers(0, 2 * num_vertices))
    edges = rng.integers(0, num_vertices, size=(num_edges, 2))
    return from_edge_array(num_vertices, edges)


class TestBfsMatchesReference:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_directed_graphs(self, seed):
        graph = random_directed_graph(seed)
        for source in range(graph.num_vertices):
            assert_same_arrays(
                (diameter.bfs_levels(graph, source),),
                (reference_bfs_levels(graph, source),),
            )

    @pytest.mark.parametrize("seed", range(30))
    def test_bfs_kernel_counts(self, seed):
        graph = random_directed_graph(seed)
        for source in (0, graph.num_vertices - 1):
            result = BreadthFirstSearch().run(graph, source)
            (phase,) = result.trace.phases
            got = (
                phase.items,
                phase.edges,
                phase.max_parallelism,
                result.trace.num_iterations,
            )
            assert got == reference_bfs_counts(graph, source)
            assert result.stats["levels"] == result.trace.num_iterations

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_proxy_diameter(self, name, monkeypatch):
        got = proxy_diameter(name)
        monkeypatch.setattr(diameter, "bfs_levels", reference_bfs_levels)
        graph = load_proxy_graph(name)
        expected = max(1, diameter.approximate_diameter(graph, num_sweeps=2, seed=1))
        assert got == expected


@pytest.mark.parametrize("seed", range(20))
def test_edge_positions_match_slice_concatenation(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=int(rng.integers(0, 12)))
    starts = rng.integers(0, 50, size=counts.size)
    pieces = [np.arange(s, s + c) for s, c in zip(starts, counts)]
    expected = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    assert_same_arrays((edge_positions(starts, counts),), (expected,))

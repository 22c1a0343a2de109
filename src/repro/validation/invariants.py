"""Invariant registry: metamorphic/algebraic checks per kernel.

Every kernel has a set of registered invariants — small callables that
inspect a :class:`~repro.kernels.base.KernelResult` produced on a
randomized generator graph and raise :class:`InvariantViolation` when the
algorithmic contract is broken.  The checks are deliberately *independent*
implementations (dense matrices, SciPy ``csgraph``, per-vertex loops), so
a bug in the instrumented NumPy kernels cannot hide inside a shared code
path:

* PageRank / PageRank-DP: probability-mass conservation, positivity.
* BFS / SSSP-BF / SSSP-Delta: distances equal a SciPy shortest-path
  oracle, plus the triangle inequality on sampled edges.
* Connected components: partition validity against ``csgraph`` and the
  min-vertex-id labelling contract.
* Triangle counting: equality with the dense ``trace(A^3)/6`` reference.
* DFS: visited set equals the reachable set; preorder is a permutation.
* Community: labels in range; converged runs are fixed points of an
  independently computed modal-label step.
* Every kernel: structural trace sanity (the cost model's input contract).

Invariants run on small graphs (the fuzzer samples |V| <= ~150), so the
quadratic/dense references stay cheap.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.errors import InvariantViolation
from repro.graph.csr import CSRGraph
from repro.kernels.base import KernelResult
from repro.kernels.registry import get_kernel, kernel_names
from repro.validation.generators import GraphCase, sample_graph_case

__all__ = [
    "KernelCase",
    "Invariant",
    "INVARIANTS",
    "invariant",
    "invariants_for",
    "registered_benchmarks",
    "sample_kernel_params",
    "check_kernel_case",
    "run_kernel_case",
]

_GENERIC = "*"
_DISTANCE_TOL = 1e-9
_MASS_TOL = 1e-6
_SAMPLED_EDGES = 64


@dataclass(frozen=True)
class KernelCase:
    """One executed fuzz case handed to the invariant callables."""

    benchmark: str
    graph_case: GraphCase
    params: dict[str, object]
    result: KernelResult

    @property
    def graph(self) -> CSRGraph:
        return self.graph_case.graph

    def describe(self) -> str:
        kwargs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return (
            f"{self.benchmark} on {self.graph_case.describe()}"
            f" with run({kwargs or 'defaults'})"
        )


CheckFn = Callable[[KernelCase, np.random.Generator], None]


@dataclass(frozen=True)
class Invariant:
    """A named check registered for one benchmark (or ``"*"`` for all)."""

    benchmark: str
    name: str
    check: CheckFn = field(repr=False)

    def __call__(self, case: KernelCase, rng: np.random.Generator) -> None:
        self.check(case, rng)


INVARIANTS: dict[str, list[Invariant]] = {}


def invariant(benchmark: str, name: str) -> Callable[[CheckFn], CheckFn]:
    """Register ``fn`` as an invariant of ``benchmark`` (``"*"`` = every)."""

    def register(fn: CheckFn) -> CheckFn:
        INVARIANTS.setdefault(benchmark, []).append(
            Invariant(benchmark=benchmark, name=name, check=fn)
        )
        return fn

    return register


def invariants_for(benchmark: str) -> tuple[Invariant, ...]:
    """All invariants that apply to ``benchmark`` (generic ones first)."""
    return tuple(INVARIANTS.get(_GENERIC, ())) + tuple(
        INVARIANTS.get(benchmark, ())
    )


def registered_benchmarks() -> list[str]:
    """Benchmarks with at least one non-generic invariant."""
    return sorted(name for name in INVARIANTS if name != _GENERIC)


def _fail(case: KernelCase, invariant_name: str, detail: str) -> None:
    raise InvariantViolation(
        f"invariant {invariant_name!r} violated for {case.describe()}: {detail}"
    )


# --------------------------------------------------------------------------
# Reference oracles (independent implementations).
# --------------------------------------------------------------------------


def _adjacency(graph: CSRGraph) -> sparse.csr_matrix:
    """The graph as a SciPy CSR adjacency matrix (weights as entries)."""
    n = graph.num_vertices
    return sparse.csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(n, n)
    )


def _reference_hops(graph: CSRGraph, source: int) -> np.ndarray:
    """Directed hop distances from ``source`` (inf where unreachable)."""
    return csgraph.dijkstra(
        _adjacency(graph), directed=True, unweighted=True, indices=source
    )


def _reference_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Directed weighted shortest distances from ``source``."""
    return csgraph.dijkstra(_adjacency(graph), directed=True, indices=source)


def _check_shortest_distances(
    case: KernelCase, rng: np.random.Generator, *, invariant_name: str
) -> None:
    """Shared SSSP oracle: dijkstra equality + sampled triangle inequality."""
    source = int(case.params.get("source", 0))
    dist = np.asarray(case.result.output, dtype=np.float64)
    reference = _reference_distances(case.graph, source)
    if dist.shape != reference.shape:
        _fail(case, invariant_name, f"distance array shape {dist.shape}")
    if dist[source] != 0.0:
        _fail(case, invariant_name, f"dist[source] = {dist[source]!r}, not 0")
    if not np.all(np.isclose(dist, reference, rtol=_DISTANCE_TOL, atol=1e-9)):
        worst = int(np.nanargmax(np.where(np.isclose(dist, reference,
                                                     rtol=_DISTANCE_TOL,
                                                     atol=1e-9), -np.inf,
                                          np.abs(dist - reference))))
        _fail(
            case,
            invariant_name,
            f"distance mismatch vs dijkstra at vertex {worst}: "
            f"kernel={dist[worst]!r} reference={reference[worst]!r}",
        )
    # Triangle inequality on sampled edges: d(v) <= d(u) + w(u, v).
    edges = case.graph.edges()
    if edges.shape[0]:
        picks = rng.integers(0, edges.shape[0], size=min(_SAMPLED_EDGES,
                                                         edges.shape[0]))
        u, v = edges[picks, 0], edges[picks, 1]
        w = case.graph.weights[picks]
        with np.errstate(invalid="ignore"):  # inf - inf on unreachable pairs
            slack = dist[v] - (dist[u] + w)
        bad = np.flatnonzero(slack > 1e-6)
        if bad.size:
            i = int(bad[0])
            _fail(
                case,
                invariant_name,
                f"triangle inequality broken on edge ({int(u[i])}, {int(v[i])}): "
                f"d[v]={dist[v[i]]!r} > d[u]+w={dist[u[i]] + w[i]!r}",
            )


# --------------------------------------------------------------------------
# Generic invariants (every kernel).
# --------------------------------------------------------------------------


@invariant(_GENERIC, "trace-structural-sanity")
def _trace_sanity(case: KernelCase, rng: np.random.Generator) -> None:
    trace = case.result.trace
    if trace.benchmark != case.benchmark:
        _fail(case, "trace-structural-sanity",
              f"trace.benchmark = {trace.benchmark!r}")
    if trace.graph_name != case.graph.name:
        _fail(case, "trace-structural-sanity",
              f"trace.graph_name = {trace.graph_name!r}")
    if trace.num_iterations < 1:
        _fail(case, "trace-structural-sanity",
              f"num_iterations = {trace.num_iterations}")
    for index, phase in enumerate(trace.phases):
        if not np.isfinite(phase.items) or phase.items < 0:
            _fail(case, "trace-structural-sanity",
                  f"phase {index} items = {phase.items!r}")
        if not np.isfinite(phase.edges) or phase.edges < 0:
            _fail(case, "trace-structural-sanity",
                  f"phase {index} edges = {phase.edges!r}")
        if phase.max_parallelism < 1:
            _fail(case, "trace-structural-sanity",
                  f"phase {index} max_parallelism = {phase.max_parallelism!r}")
        if not 0.0 <= phase.work_skew <= 1.0:
            _fail(case, "trace-structural-sanity",
                  f"phase {index} work_skew = {phase.work_skew!r}")


# --------------------------------------------------------------------------
# PageRank family.
# --------------------------------------------------------------------------


@invariant("pagerank", "mass-conservation")
def _pagerank_mass(case: KernelCase, rng: np.random.Generator) -> None:
    ranks = np.asarray(case.result.output, dtype=np.float64)
    total = float(ranks.sum())
    if abs(total - 1.0) > _MASS_TOL:
        _fail(case, "mass-conservation", f"ranks sum to {total!r}, not 1")


@invariant("pagerank", "rank-positivity")
def _pagerank_positive(case: KernelCase, rng: np.random.Generator) -> None:
    ranks = np.asarray(case.result.output, dtype=np.float64)
    damping = float(case.params.get("damping", 0.85))
    if not np.all(np.isfinite(ranks)):
        _fail(case, "rank-positivity", "non-finite rank")
    floor = (1.0 - damping) / case.graph.num_vertices
    if ranks.min(initial=np.inf) < floor * (1.0 - 1e-9):
        _fail(
            case,
            "rank-positivity",
            f"min rank {ranks.min()!r} below the teleport floor {floor!r}",
        )


@invariant("pagerank_dp", "mass-conservation")
def _pagerank_dp_mass(case: KernelCase, rng: np.random.Generator) -> None:
    ranks = np.asarray(case.result.output, dtype=np.float64)
    if not np.all(np.isfinite(ranks)):
        _fail(case, "mass-conservation", "non-finite rank")
    if ranks.min(initial=np.inf) <= 0.0:
        _fail(case, "mass-conservation", f"non-positive rank {ranks.min()!r}")
    total = float(ranks.sum())
    if abs(total - 1.0) > _MASS_TOL:
        _fail(case, "mass-conservation", f"ranks sum to {total!r}, not 1")


# --------------------------------------------------------------------------
# Traversals: BFS / DFS.
# --------------------------------------------------------------------------


@invariant("bfs", "levels-match-reference")
def _bfs_reference(case: KernelCase, rng: np.random.Generator) -> None:
    source = int(case.params.get("source", 0))
    levels = np.asarray(case.result.output, dtype=np.int64)
    hops = _reference_hops(case.graph, source)
    expected = np.where(np.isinf(hops), -1, hops).astype(np.int64)
    if not np.array_equal(levels, expected):
        bad = int(np.flatnonzero(levels != expected)[0])
        _fail(
            case,
            "levels-match-reference",
            f"level mismatch at vertex {bad}: kernel={int(levels[bad])} "
            f"reference={int(expected[bad])}",
        )


@invariant("dfs", "preorder-covers-reachable-set")
def _dfs_structure(case: KernelCase, rng: np.random.Generator) -> None:
    source = int(case.params.get("source", 0))
    order = np.asarray(case.result.output, dtype=np.int64)
    visited = order >= 0
    reachable = np.isfinite(_reference_hops(case.graph, source))
    if not np.array_equal(visited, reachable):
        bad = int(np.flatnonzero(visited != reachable)[0])
        _fail(
            case,
            "preorder-covers-reachable-set",
            f"vertex {bad} visited={bool(visited[bad])} but "
            f"reachable={bool(reachable[bad])}",
        )
    if order[source] != 0:
        _fail(case, "preorder-covers-reachable-set",
              f"order[source] = {int(order[source])}, not 0")
    ranks = np.sort(order[visited])
    if not np.array_equal(ranks, np.arange(ranks.size)):
        _fail(case, "preorder-covers-reachable-set",
              "preorder numbers are not a permutation of 0..k-1")


# --------------------------------------------------------------------------
# Shortest paths.
# --------------------------------------------------------------------------


@invariant("sssp_bf", "distances-match-reference")
def _sssp_bf_reference(case: KernelCase, rng: np.random.Generator) -> None:
    _check_shortest_distances(case, rng,
                              invariant_name="distances-match-reference")


@invariant("sssp_delta", "distances-match-reference")
def _sssp_delta_reference(case: KernelCase, rng: np.random.Generator) -> None:
    _check_shortest_distances(case, rng,
                              invariant_name="distances-match-reference")


# --------------------------------------------------------------------------
# Connected components.
# --------------------------------------------------------------------------


@invariant("connected_components", "partition-validity")
def _components_partition(case: KernelCase, rng: np.random.Generator) -> None:
    labels = np.asarray(case.result.output, dtype=np.int64)
    num_components, reference = csgraph.connected_components(
        _adjacency(case.graph), directed=False
    )
    if np.unique(labels).size != num_components:
        _fail(
            case,
            "partition-validity",
            f"{np.unique(labels).size} distinct labels but the graph has "
            f"{num_components} weak components",
        )
    # The kernel's contract: each label is the minimum vertex id of its
    # component — so mapping the reference partition to per-component
    # minima must reproduce the labels exactly.
    minima = np.full(num_components, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(minima, reference, np.arange(labels.size, dtype=np.int64))
    expected = minima[reference]
    if not np.array_equal(labels, expected):
        bad = int(np.flatnonzero(labels != expected)[0])
        _fail(
            case,
            "partition-validity",
            f"vertex {bad} labelled {int(labels[bad])}, expected component "
            f"minimum {int(expected[bad])}",
        )


# --------------------------------------------------------------------------
# Triangle counting.
# --------------------------------------------------------------------------


@invariant("triangle_counting", "dense-matrix-count")
def _triangles_dense(case: KernelCase, rng: np.random.Generator) -> None:
    n = case.graph.num_vertices
    dense = np.zeros((n, n), dtype=np.int64)
    edges = case.graph.edges()
    off_diag = edges[edges[:, 0] != edges[:, 1]]
    dense[off_diag[:, 0], off_diag[:, 1]] = 1
    dense = dense | dense.T
    expected = int(np.trace(dense @ dense @ dense) // 6)
    count = int(case.result.output)
    if count != expected:
        _fail(
            case,
            "dense-matrix-count",
            f"kernel counted {count} triangles, dense trace(A^3)/6 gives "
            f"{expected}",
        )


# --------------------------------------------------------------------------
# Community detection.
# --------------------------------------------------------------------------


def _modal_neighbor_labels(
    graph: CSRGraph, labels: np.ndarray
) -> np.ndarray:
    """Independent modal-label step (smallest label wins ties)."""
    und = graph.to_undirected()
    result = labels.copy()
    for vertex in range(und.num_vertices):
        neighbor_labels = labels[und.neighbors(vertex)]
        if neighbor_labels.size == 0:
            continue
        values, counts = np.unique(neighbor_labels, return_counts=True)
        result[vertex] = values[np.argmax(counts)]
    return result


@invariant("community", "labels-in-range")
def _community_range(case: KernelCase, rng: np.random.Generator) -> None:
    labels = np.asarray(case.result.output, dtype=np.int64)
    n = case.graph.num_vertices
    if labels.shape != (n,):
        _fail(case, "labels-in-range", f"label array shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        _fail(case, "labels-in-range",
              f"label outside [0, {n}): {int(labels.min())}..{int(labels.max())}")


@invariant("community", "converged-runs-are-fixed-points")
def _community_fixed_point(case: KernelCase, rng: np.random.Generator) -> None:
    iterations = case.result.stats.get("iterations", 0)
    max_iterations = int(case.params.get("max_iterations", 30))
    if iterations >= max_iterations:
        return  # hit the round cap without converging; nothing to assert
    labels = np.asarray(case.result.output, dtype=np.int64)
    stepped = _modal_neighbor_labels(case.graph, labels)
    if not np.array_equal(stepped, labels):
        bad = int(np.flatnonzero(stepped != labels)[0])
        _fail(
            case,
            "converged-runs-are-fixed-points",
            f"converged labelling is not stable: vertex {bad} moves "
            f"{int(labels[bad])} -> {int(stepped[bad])} under one more "
            "modal-label round",
        )


# --------------------------------------------------------------------------
# Case execution.
# --------------------------------------------------------------------------


def sample_kernel_params(
    benchmark: str, graph: CSRGraph, rng: np.random.Generator
) -> dict[str, object]:
    """Draw randomized run() kwargs appropriate for ``benchmark``."""
    params: dict[str, object] = {}
    if benchmark in ("bfs", "dfs", "sssp_bf", "sssp_delta"):
        params["source"] = int(rng.integers(0, graph.num_vertices))
    if benchmark in ("pagerank",):
        params["damping"] = float(np.round(rng.uniform(0.5, 0.95), 3))
    return params


def check_kernel_case(
    benchmark: str,
    graph_case: GraphCase,
    rng: np.random.Generator,
    params: dict[str, object] | None = None,
) -> KernelCase:
    """Run ``benchmark`` on a graph case and apply all its invariants.

    Returns:
        The executed :class:`KernelCase` (so callers can inspect results).

    Raises:
        InvariantViolation: when any registered invariant fails.
    """
    if params is None:
        params = sample_kernel_params(benchmark, graph_case.graph, rng)
    result = get_kernel(benchmark).run(graph_case.graph, **params)
    case = KernelCase(
        benchmark=benchmark, graph_case=graph_case, params=params, result=result
    )
    for inv in invariants_for(benchmark):
        inv(case, rng)
    return case


def run_kernel_case(seed: int) -> str:
    """One kernel-invariant fuzz case: random graph, random benchmark.

    Returns a short description of the exercised case (for fuzz logs).

    Raises:
        InvariantViolation: when the sampled case breaks an invariant.
    """
    rng = np.random.default_rng(seed)
    graph_case = sample_graph_case(rng)
    names = kernel_names()
    benchmark = names[int(rng.integers(0, len(names)))]
    case = check_kernel_case(benchmark, graph_case, rng)
    return case.describe()

"""Per-benchmark B-variable profiles (Figures 5 and 6 of the paper).

Figure 6 gives full numeric values for SSSP-BF; Figure 5 gives the ✓ matrix
for all nine benchmarks plus prose about phase composition ("BFS uses only
Pareto-division B3, and DFS uses only Push-Pop B4", "DFS and Conn. Comp.
have complex indirect data accesses", FP benchmarks are PR / PR-DP / Comm).
The numeric profiles below realise those constraints; where the paper gives
no number we assign the moderate values its examples use (0.2–0.6), keeping
every stated ✓/blank distinction intact.
"""

from __future__ import annotations

from repro.errors import UnknownBenchmarkError
from repro.features.bvars import BVariables

__all__ = [
    "BENCHMARK_PROFILES",
    "BENCHMARK_DISPLAY_NAMES",
    "benchmark_names",
    "get_profile",
    "normalize_benchmark_name",
]

BENCHMARK_PROFILES: dict[str, BVariables] = {
    # Figure 6's exact SSSP-Bellman-Ford discretization.
    "sssp_bf": BVariables(
        b1=1.0, b6=0.0, b7=0.8, b8=0.0, b9=0.5, b10=0.5, b11=0.2,
        b12=0.2, b13=0.2,
    ),
    # Δ-stepping: parallel buckets pushed/popped (B4) plus the GAP bucket
    # reduction (B5); heavier contention and RW sharing than SSSP-BF.
    "sssp_delta": BVariables(
        b1=0.4, b4=0.4, b5=0.2, b7=0.7, b9=0.3, b10=0.6, b11=0.1,
        b12=0.4, b13=0.3,
    ),
    # "BFS uses only Pareto-division B3".
    "bfs": BVariables(
        b3=1.0, b7=0.9, b9=0.4, b10=0.4, b11=0.1, b12=0.1, b13=0.2,
    ),
    # "DFS uses only Push-Pop B4"; indirect queue addressing sets B8.
    "dfs": BVariables(
        b4=1.0, b7=0.7, b8=0.3, b9=0.4, b10=0.3, b11=0.3, b12=0.1, b13=0.1,
    ),
    # PageRank: vertex division + rank-sum reduction, FP heavy.
    "pagerank": BVariables(
        b1=0.7, b5=0.3, b6=0.7, b7=0.9, b9=0.5, b10=0.5, b11=0.2,
        b12=0.3, b13=0.2,
    ),
    # Delta-PageRank: more data-parallel, slightly less FP state touched.
    "pagerank_dp": BVariables(
        b1=0.8, b5=0.2, b6=0.6, b7=0.9, b9=0.5, b10=0.4, b11=0.2,
        b12=0.2, b13=0.2,
    ),
    # Triangle counting: reduction-dominated, read-mostly adjacency reuse.
    "triangle_counting": BVariables(
        b1=0.4, b5=0.6, b7=0.8, b9=0.7, b10=0.3, b11=0.3, b12=0.3, b13=0.1,
    ),
    # Community detection: FP modularity math over RW-shared labels.
    "community": BVariables(
        b1=0.5, b5=0.5, b6=0.5, b7=0.8, b9=0.4, b10=0.6, b11=0.1,
        b12=0.4, b13=0.3,
    ),
    # Connected components: label propagation with indirect hooking (B8).
    "connected_components": BVariables(
        b1=0.6, b5=0.4, b7=0.5, b8=0.5, b9=0.3, b10=0.6, b11=0.1,
        b12=0.3, b13=0.2,
    ),
}

BENCHMARK_DISPLAY_NAMES: dict[str, str] = {
    "sssp_bf": "SSSP-BF",
    "sssp_delta": "SSSP-Delta",
    "bfs": "BFS",
    "dfs": "DFS",
    "pagerank": "PageRank",
    "pagerank_dp": "PageRank-DP",
    "triangle_counting": "Tri.Cnt.",
    "community": "Comm.",
    "connected_components": "Conn.Comp.",
}


def benchmark_names() -> list[str]:
    """Canonical benchmark keys in the paper's Figure 5 order."""
    return list(BENCHMARK_PROFILES)


def _spelling(name: str) -> str:
    return name.lower().replace("-", "_").replace(".", "").replace(" ", "_")


# Every accepted name's normal spelling -> its canonical key.
_CANONICAL: dict[str, str] = {
    **{_spelling(display): key for key, display in BENCHMARK_DISPLAY_NAMES.items()},
    **{key: key for key in BENCHMARK_PROFILES},
}


def normalize_benchmark_name(name: str) -> str:
    """Resolve a benchmark name to its canonical key: canonical keys,
    display names ("Tri.Cnt."), paper spellings ("PageRank-DP") and
    CLI-friendly variants ("sssp delta"), in any casing.  Idempotent.
    Kernels, profiles and trace-cache keys all resolve through it.

    Raises:
        UnknownBenchmarkError: when nothing matches.
    """
    key = _CANONICAL.get(_spelling(name))
    if key is None:
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; known: {benchmark_names()}"
        )
    return key


def get_profile(name: str) -> BVariables:
    """B-variable profile for a benchmark, by any accepted name.

    Raises:
        UnknownBenchmarkError: when nothing matches.
    """
    return BENCHMARK_PROFILES[normalize_benchmark_name(name)]

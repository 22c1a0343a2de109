"""Graph substrate: CSR graphs, builders, IO, stats, diameter, streaming."""

from repro.graph.builders import (
    empty_graph,
    from_adjacency,
    from_edge_array,
    from_edge_list,
)
from repro.graph.chunking import GraphChunk, iter_chunks, num_chunks_for_budget
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASETS,
    DatasetSpec,
    PaperGraphMeta,
    ProxyMeta,
    dataset_names,
    get_dataset,
    load_proxy_graph,
)
from repro.graph.diameter import (
    approximate_diameter,
    bfs_levels,
    eccentricity,
    exact_diameter,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.properties import GraphStats, compute_stats

__all__ = [
    "CSRGraph",
    "DATASETS",
    "DatasetSpec",
    "GraphChunk",
    "GraphStats",
    "PaperGraphMeta",
    "ProxyMeta",
    "approximate_diameter",
    "bfs_levels",
    "compute_stats",
    "dataset_names",
    "eccentricity",
    "empty_graph",
    "exact_diameter",
    "from_adjacency",
    "from_edge_array",
    "from_edge_list",
    "get_dataset",
    "iter_chunks",
    "load_proxy_graph",
    "num_chunks_for_budget",
    "read_edge_list",
    "write_edge_list",
]

"""Registry of the paper's Table I input datasets.

The paper evaluates on nine real-world graphs (USA-Cal roads through a 134M
vertex Kronecker graph).  Those inputs are multi-gigabyte downloads we do
not have, so each entry pairs:

* **paper metadata** — the published #V, #E, max degree, and diameter from
  Table I.  The I variables the predictor consumes are computed from these
  numbers, so accelerator decisions match the paper's.
* **a structural proxy** — a synthetic graph (≤ a few hundred thousand
  edges) from the matching generator family: road grid for USA-Cal,
  power-law social for FB/LJ/Twitter/Friendster, dense uniform for the
  mouse-retina connectome, banded for CAGE-14, geometric for rgg-n-24, and
  R-MAT for KronLarge.  Kernels execute on the proxy, which preserves the
  frontier shapes, locality, and divergence behaviour that drive the cost
  model.

Table I's CO/CAGE diameter cells are garbled in the source text ("1 8" /
blank); we read them as CO = 1 (a 562-vertex graph with 0.57M edges is a
near-clique) and CAGE-14 = 8 ("lower diameter" per the Figure 1 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import UnknownDatasetError
from repro.graph.csr import CSRGraph
from repro.graph.diameter import approximate_diameter
from repro.graph.generators import make_graph

__all__ = [
    "PaperGraphMeta",
    "DatasetSpec",
    "DATASETS",
    "dataset_names",
    "dataset_codes",
    "get_dataset",
    "load_proxy_graph",
    "proxy_diameter",
]


@dataclass(frozen=True)
class PaperGraphMeta:
    """Published characteristics of a Table I input graph."""

    num_vertices: int
    num_edges: int
    max_degree: int
    diameter: int

    @property
    def avg_degree(self) -> float:
        """Mean degree implied by the published counts."""
        return self.num_edges / self.num_vertices if self.num_vertices else 0.0


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: paper metadata plus proxy-generator recipe."""

    name: str
    code: str
    family: str
    paper: PaperGraphMeta
    proxy_params: dict
    description: str


_M = 1_000_000
_B = 1_000_000_000

DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="usa-cal",
            code="CA",
            family="road",
            paper=PaperGraphMeta(1_900_000, 4_700_000, 12, 850),
            proxy_params={"width": 120, "height": 135, "seed": 11},
            description="California road network (DIMACS); sparse, huge diameter",
        ),
        DatasetSpec(
            name="facebook",
            code="FB",
            family="social",
            paper=PaperGraphMeta(2_900_000, 41_900_000, 90_000, 12),
            proxy_params={
                "num_vertices": 20_000,
                "avg_degree": 12,
                "hub_fraction": 0.0004,
                "hub_degree_share": 0.03,
                "seed": 22,
            },
            description="Facebook social graph; power-law, small diameter",
        ),
        DatasetSpec(
            name="livejournal",
            code="LJ",
            family="social",
            paper=PaperGraphMeta(4_800_000, 85_700_000, 20_000, 16),
            proxy_params={
                "num_vertices": 24_000,
                "avg_degree": 16,
                "hub_fraction": 0.0003,
                "hub_degree_share": 0.012,
                "seed": 33,
            },
            description="LiveJournal social graph",
        ),
        DatasetSpec(
            name="twitter",
            code="Twtr",
            family="social",
            paper=PaperGraphMeta(41_700_000, 1_470 * _M, 3_000_000, 5),
            proxy_params={
                "num_vertices": 30_000,
                "avg_degree": 30,
                "hub_fraction": 0.0005,
                "hub_degree_share": 0.07,
                "seed": 44,
            },
            description="Twitter follower graph; extreme hubs, diameter 5",
        ),
        DatasetSpec(
            name="friendster",
            code="Frnd",
            family="social",
            paper=PaperGraphMeta(65_600_000, 1_810 * _M, 5_200, 32),
            proxy_params={
                "num_vertices": 32_000,
                "avg_degree": 26,
                "hub_fraction": 0.0002,
                "hub_degree_share": 0.004,
                "seed": 55,
            },
            description="Friendster social graph; huge but moderate hubs",
        ),
        DatasetSpec(
            name="m-ret-3",
            code="CO",
            family="uniform",
            paper=PaperGraphMeta(562, 570_000, 1027, 1),
            proxy_params={"num_vertices": 562, "num_edges": 60_000, "seed": 66},
            description="Mouse retina connectome 3; tiny, near-clique dense",
        ),
        DatasetSpec(
            name="cage14",
            code="CAGE",
            family="cage",
            paper=PaperGraphMeta(1_500_000, 25_600_000, 80, 8),
            proxy_params={"num_vertices": 16_000, "avg_degree": 17, "seed": 77},
            description="CAGE-14 DNA electrophoresis matrix; banded, uniform degree",
        ),
        DatasetSpec(
            name="rgg-n-24",
            code="Rgg",
            family="rgg",
            paper=PaperGraphMeta(16_800_000, 387_000_000, 40, 2622),
            proxy_params={
                "num_vertices": 16_000,
                "target_avg_degree": 20.0,
                "seed": 88,
            },
            description="Random geometric graph; extreme diameter",
        ),
        DatasetSpec(
            name="kron-large",
            code="Kron",
            family="kronecker",
            paper=PaperGraphMeta(134_000_000, 2_150 * _M, 16_000_000, 12),
            proxy_params={"scale": 14, "edge_factor": 16, "seed": 99},
            description="Large synthetic Kronecker graph",
        ),
    ]
}

# Table I prints KronLarge's max degree as "16.0" with the column shifted;
# Kronecker graphs at that scale have multi-million-degree hubs, and the
# paper sets Twitter's I3 to 1 as "the largest available degree", so the
# Kron hub is modelled at 16M (12% of V) but Twitter remains the I3 anchor
# for normalization (see repro.features.ivars).


def dataset_names() -> list[str]:
    """Sorted canonical dataset names."""
    return sorted(DATASETS)


def dataset_codes() -> dict[str, str]:
    """Map of dataset name to the short code used in the paper's figures."""
    return {name: spec.code for name, spec in DATASETS.items()}


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset by canonical name or short code (case-insensitive).

    Raises:
        UnknownDatasetError: when nothing matches.
    """
    key = name.lower()
    if key in DATASETS:
        return DATASETS[key]
    for spec in DATASETS.values():
        if spec.code.lower() == key:
            return spec
    raise UnknownDatasetError(
        f"unknown dataset {name!r}; known: {dataset_names()}"
    )


@lru_cache(maxsize=None)
def load_proxy_graph(name: str) -> CSRGraph:
    """Build (and cache) the structural proxy graph for a dataset."""
    spec = get_dataset(name)
    graph = make_graph(spec.family, **spec.proxy_params)
    return CSRGraph(
        graph.indptr, graph.indices, graph.weights, name=spec.name
    )


@lru_cache(maxsize=None)
def proxy_diameter(name: str) -> int:
    """The proxy graph's approximate diameter (at least 1), computed once
    per dataset: deployment scales iteration-bound work by it."""
    graph = load_proxy_graph(name)
    return max(1, approximate_diameter(graph, num_sweeps=2, seed=1))

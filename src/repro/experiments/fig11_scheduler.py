"""Figure 11: scheduler comparison across all benchmark-input combinations.

For every (benchmark, dataset) pair on the primary GTX-750Ti + Xeon Phi
setup, reports completion times normalized to the GPU-only baseline (the
untuned full-resource deployment)
(the paper's normalization; higher is worse) for: the multicore-only
baseline, HeteroMap (deep learner, inference overhead included), and the
exhaustive ideal.

Headline numbers to match in shape: HeteroMap ~31% better than GPU-only
and ~75% better than Phi-only overall, and within ~10% of the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.heteromap import HeteroMap
from repro.experiments.common import (
    BENCHMARK_ORDER,
    DATASET_ORDER,
    geomean,
    render_table,
    trained_heteromap,
)
from repro.features.profiles import BENCHMARK_DISPLAY_NAMES
from repro.graph.datasets import get_dataset
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime.deploy import prepare_workload

__all__ = ["SchedulerCell", "Fig11Result", "run_experiment", "render"]


@dataclass(frozen=True)
class SchedulerCell:
    """One benchmark-input combination, normalized to untuned GPU-only."""

    benchmark: str
    dataset: str
    gpu_only: float  # always 1.0 (the normalization basis)
    multicore_only: float
    heteromap: float
    ideal: float
    chosen_accelerator: str


@dataclass(frozen=True)
class Fig11Result:
    pair: tuple[str, str]
    cells: tuple[SchedulerCell, ...]

    def geomean_gain_over_gpu(self) -> float:
        """Geomean of GPU-only time / HeteroMap time (>1 means faster)."""
        return geomean([1.0 / cell.heteromap for cell in self.cells])

    def geomean_gain_over_multicore(self) -> float:
        return geomean(
            [cell.multicore_only / cell.heteromap for cell in self.cells]
        )

    def geomean_gap_to_ideal(self) -> float:
        """Geomean of HeteroMap time / ideal time (1.0 = matches ideal)."""
        return geomean([cell.heteromap / cell.ideal for cell in self.cells])


def run_experiment(
    *,
    pair: tuple[str, str] = DEFAULT_PAIR,
    predictor: str = "deep128",
    hetero: HeteroMap | None = None,
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    datasets: tuple[str, ...] = DATASET_ORDER,
) -> Fig11Result:
    """Populate the Figure 11 grid (or Figure 14's with another pair)."""
    if hetero is None:
        hetero = trained_heteromap(pair, predictor=predictor)
    cells = []
    for benchmark in benchmarks:
        for dataset in datasets:
            workload = prepare_workload(benchmark, dataset)
            gpu_time = hetero.run_single_accelerator(
                workload, "gpu", tuned=False
            ).time_ms
            mc_time = hetero.run_single_accelerator(
                workload, "multicore", tuned=False
            ).time_ms
            outcome = hetero.run_workload(workload)
            ideal_time = hetero.run_ideal(workload).time_ms
            cells.append(
                SchedulerCell(
                    benchmark=benchmark,
                    dataset=dataset,
                    gpu_only=1.0,
                    multicore_only=mc_time / gpu_time,
                    heteromap=outcome.completion_time_ms / gpu_time,
                    ideal=ideal_time / gpu_time,
                    chosen_accelerator=outcome.chosen_accelerator,
                )
            )
    return Fig11Result(pair=(hetero.gpu.name, hetero.multicore.name), cells=tuple(cells))


def render(result: Fig11Result) -> str:
    rows = [
        [
            BENCHMARK_DISPLAY_NAMES.get(cell.benchmark, cell.benchmark),
            get_dataset(cell.dataset).code,
            cell.multicore_only,
            cell.heteromap,
            cell.ideal,
            cell.chosen_accelerator,
        ]
        for cell in result.cells
    ]
    table = render_table(
        ["benchmark", "input", "MC-only", "HeteroMap", "ideal", "chosen"],
        rows,
    )
    summary = (
        f"\ngeomean gain over GPU-only:      "
        f"{100 * (result.geomean_gain_over_gpu() - 1):+.1f}%"
        f"\ngeomean gain over multicore-only: "
        f"{100 * (result.geomean_gain_over_multicore() - 1):+.1f}%"
        f"\ngeomean gap to ideal:             "
        f"{100 * (result.geomean_gap_to_ideal() - 1):+.1f}%"
    )
    return (
        f"Figure 11: scheduler comparison on {result.pair} "
        "(normalized to GPU-only; higher is worse)\n" + table + summary
    )

"""Figure 15: the 40-core CPU paired with each GPU.

Per benchmark, the geomean (across inputs) of completion time normalized
to the GPU for: the CPU-only baseline, HeteroMap, and the ideal — for both
(GTX-750Ti, CPU) and (GTX-970, CPU) pairs.  Paper shape: GPUs win the
highly parallel traversals; the CPU wins most of the rest against the
GTX-750Ti while the GTX-970 claws back DFS and Conn.Comp.; HeteroMap
gains ~22% over the GTX-750 and ~5% over the GTX-970.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    BENCHMARK_ORDER,
    DATASET_ORDER,
    geomean,
    render_table,
    trained_heteromap,
)
from repro.features.profiles import BENCHMARK_DISPLAY_NAMES
from repro.runtime.deploy import prepare_workload

__all__ = ["CpuPairRow", "Fig15Result", "run_experiment", "render"]

PAIRS = (("gtx750ti", "cpu40core"), ("gtx970", "cpu40core"))


@dataclass(frozen=True)
class CpuPairRow:
    pair: tuple[str, str]
    benchmark: str
    cpu_only: float  # normalized to untuned GPU-only
    heteromap: float
    ideal: float


@dataclass(frozen=True)
class Fig15Result:
    rows: tuple[CpuPairRow, ...]

    def gain_over_gpu(self, pair: tuple[str, str]) -> float:
        cells = [row for row in self.rows if row.pair == pair]
        return geomean([1.0 / row.heteromap for row in cells])


def run_experiment(
    *,
    predictor: str = "deep128",
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    datasets: tuple[str, ...] = DATASET_ORDER,
) -> Fig15Result:
    rows = []
    for pair in PAIRS:
        hetero = trained_heteromap(pair, predictor=predictor)
        for benchmark in benchmarks:
            cpu_norm, hm_norm, ideal_norm = [], [], []
            for dataset in datasets:
                workload = prepare_workload(benchmark, dataset)
                gpu_t = hetero.run_single_accelerator(
                    workload, "gpu", tuned=False
                ).time_ms
                cpu_t = hetero.run_single_accelerator(
                    workload, "multicore", tuned=False
                ).time_ms
                hm_t = hetero.run_workload(workload).completion_time_ms
                ideal_t = hetero.run_ideal(workload).time_ms
                cpu_norm.append(cpu_t / gpu_t)
                hm_norm.append(hm_t / gpu_t)
                ideal_norm.append(ideal_t / gpu_t)
            rows.append(
                CpuPairRow(
                    pair=pair,
                    benchmark=benchmark,
                    cpu_only=geomean(cpu_norm),
                    heteromap=geomean(hm_norm),
                    ideal=geomean(ideal_norm),
                )
            )
    return Fig15Result(rows=tuple(rows))


def render(result: Fig15Result) -> str:
    blocks = []
    for pair in PAIRS:
        cells = [row for row in result.rows if row.pair == pair]
        table = render_table(
            ["benchmark", "CPU-only", "HeteroMap", "ideal"],
            [
                [
                    BENCHMARK_DISPLAY_NAMES.get(row.benchmark, row.benchmark),
                    row.cpu_only,
                    row.heteromap,
                    row.ideal,
                ]
                for row in cells
            ],
        )
        gain = 100 * (result.gain_over_gpu(pair) - 1)
        blocks.append(
            f"pair {pair} (normalized to untuned GPU-only)\n{table}\n"
            f"HeteroMap gain over GPU-only: {gain:+.1f}%"
        )
    return "Figure 15: 40-core CPU pairs\n" + "\n\n".join(blocks)

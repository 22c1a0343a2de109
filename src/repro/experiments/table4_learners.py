"""Table IV: learning-model comparison.

Every learner trains on the *same* offline database (the paper: "all are
trained with the same amount of training data/time"), then schedules all
81 real benchmark-input combinations.  Reported per learner:

* **speedup (%)** — geomean completion-time gain over the GPU-only
  baseline ("Speedup shown over the GTX-750 GPU as it is the better
  baseline case"): the untuned full-resource deployment a single-
  accelerator setup runs, with the learner's measured inference overhead
  charged to every run;
* **accuracy (%)** — the paper's "comparing the integer outputs
  (constituting choice selections)": the fraction of discretized M choice
  selections that match the exhaustive-sweep ideal's selections, averaged
  over the grid;
* **overhead (ms)** — measured single-prediction latency.

Expected orderings (the paper's findings): linear regression and the
adaptive library trail badly; the analytical decision tree is cheap and
decent; deep models improve with size, with diminishing returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encoding import choice_signature, encode_config
from repro.core.heteromap import HeteroMap
from repro.experiments.common import (
    BENCHMARK_ORDER,
    DATASET_ORDER,
    DEFAULT_SEED,
    DEFAULT_TRAINING_SAMPLES,
    cached_training_database,
    geomean,
    render_table,
)
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime.deploy import prepare_workload

__all__ = ["LearnerRow", "run_experiment", "render", "TABLE4_LEARNERS"]

TABLE4_LEARNERS = (
    "decision_tree",
    "linear",
    "multi_regression",
    "adaptive_library",
    "deep16",
    "deep32",
    "deep64",
    "deep128",
    "deep256",
)


@dataclass(frozen=True)
class LearnerRow:
    learner: str
    speedup_percent: float  # geomean gain over untuned GPU-only
    accuracy_percent: float  # mean share of choice selections matching the ideal's
    overhead_ms: float


def run_experiment(
    *,
    learners: tuple[str, ...] = TABLE4_LEARNERS,
    pair: tuple[str, str] = DEFAULT_PAIR,
    num_samples: int = DEFAULT_TRAINING_SAMPLES,
    seed: int = DEFAULT_SEED,
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    datasets: tuple[str, ...] = DATASET_ORDER,
) -> list[LearnerRow]:
    """Evaluate every learner on the real benchmark-input grid."""
    database = cached_training_database(
        pair, num_samples=num_samples, seed=seed
    )
    workloads = [
        prepare_workload(benchmark, dataset)
        for benchmark in benchmarks
        for dataset in datasets
    ]
    # Shared baselines: untuned GPU-only and the exhaustive ideal.
    probe = HeteroMap(pair, predictor="decision_tree", seed=seed)
    gpu_times = [
        probe.run_single_accelerator(w, "gpu", tuned=False).time_ms
        for w in workloads
    ]
    ideal_results = [probe.run_ideal(w) for w in workloads]
    ideal_signatures = [
        choice_signature(encode_config(r.config, probe.gpu, probe.multicore))
        for r in ideal_results
    ]

    rows = []
    for learner in learners:
        hetero = HeteroMap(pair, predictor=learner, seed=seed)
        hetero.train(database=database)
        outcomes = [hetero.run_workload(w) for w in workloads]
        achieved = [o.completion_time_ms for o in outcomes]
        speedup = geomean(
            [g / a for g, a in zip(gpu_times, achieved)]
        )
        matches = []
        for outcome, ideal_sig in zip(outcomes, ideal_signatures):
            sig = choice_signature(
                encode_config(outcome.config, hetero.gpu, hetero.multicore)
            )
            matches.append(
                sum(a == b for a, b in zip(sig, ideal_sig)) / len(ideal_sig)
            )
        accuracy = sum(matches) / len(matches)
        rows.append(
            LearnerRow(
                learner=learner,
                speedup_percent=100.0 * (speedup - 1.0),
                accuracy_percent=100.0 * accuracy,
                overhead_ms=hetero.overhead_ms,
            )
        )
    return rows


def render(rows: list[LearnerRow]) -> str:
    table = render_table(
        ["learner", "speedup (%)", "accuracy (%)", "overhead (ms)"],
        [
            [row.learner, row.speedup_percent, row.accuracy_percent, row.overhead_ms]
            for row in rows
        ],
    )
    return "Table IV: learning model strategies (vs GPU-only)\n" + table

"""Offline training pipeline (Section V's "Offline Learning Formulation").

Synthetic benchmarks (phase mixes per Figure 9) paired with synthetic
graph characteristics (Table III ranges) are swept over the M lattice on
both accelerators; the best configuration per sample becomes the training
label.  The paper runs "several million" hardware combinations over hours;
the vectorized batch evaluator makes each per-sample sweep a handful of
NumPy passes, and :func:`build_training_database` can additionally fan
samples out over worker processes (``workers=N``) while keeping the
database content byte-identical to the serial build.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import obs
from repro.accel.batch import lattice_table
from repro.core.database import TrainingDatabase
from repro.core.encoding import encode_config, encode_features
from repro.machine.specs import AcceleratorSpec
from repro.tuning.exhaustive import best_on_pair
from repro.workload.profile import build_profile
from repro.workload.synthetic import SyntheticSample, generate_samples

__all__ = [
    "available_cpus",
    "effective_workers",
    "label_sample",
    "build_training_database",
]


def label_sample(
    sample: SyntheticSample,
    gpu: AcceleratorSpec,
    multicore: AcceleratorSpec,
    *,
    metric: str = "time",
) -> tuple[np.ndarray, np.ndarray, float]:
    """Auto-tune one synthetic sample; returns (features, target, best).

    The full lattice on both accelerators is swept (the OpenTuner role,
    via :func:`repro.tuning.exhaustive.best_on_pair`) and the winning
    configuration is encoded as the label.
    """
    graph = sample.graph
    profile = build_profile(
        sample.trace,
        sample.bvars,
        target_vertices=graph.num_vertices,
        target_edges=graph.num_edges,
        source_vertices=graph.num_vertices,
        source_edges=graph.num_edges,
    )
    best_result = best_on_pair(profile, (gpu, multicore), metric=metric)
    features = encode_features(sample.bvars, sample.ivars)
    target = encode_config(best_result.config, gpu, multicore)
    return features, target, best_result.objective(metric)


#: Parallel labeling only pays off once every worker process amortizes its
#: spawn/import cost over enough lattice sweeps; below this many samples
#: per worker the serial path wins (and is trivially byte-identical), so
#: small builds fall through to it.  Raised from 32 after the bench showed
#: pool overhead still eating the win at ~32 samples/worker on slow hosts.
_MIN_SAMPLES_PER_WORKER = 64

#: Chunks dispatched per worker.  A few chunks per worker balances load
#: (sweep time varies with the sampled lattice) without returning to the
#: one-task-per-sample IPC overhead that made the old dispatch slower
#: than serial.
_CHUNKS_PER_WORKER = 4

# Per-worker context installed once by the pool initializer, so each
# dispatched chunk pickles only its samples — not the accelerator specs
# and metric over and over.
_WORKER_CONTEXT: tuple[AcceleratorSpec, AcceleratorSpec, str] | None = None


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def effective_workers(workers: int, num_samples: int) -> int:
    """Worker count the build will really use (1 means the serial path).

    Clamps to the CPUs the process can run on — extra workers on a
    saturated host only add IPC and scheduling overhead — and falls back
    to serial when the build is too small to amortize pool startup
    (fewer than ``workers × 64`` samples).
    """
    workers = min(int(workers), available_cpus())
    if workers <= 1:
        return 1
    if num_samples < workers * _MIN_SAMPLES_PER_WORKER:
        return 1
    return workers


def _init_worker(
    gpu: AcceleratorSpec, multicore: AcceleratorSpec, metric: str
) -> None:
    """Pool initializer: install the context and pre-warm both lattices.

    Building the cached config tables here moves that one-time cost off
    every worker's first chunk, so chunk latencies stay uniform and the
    load balancer's few-chunks-per-worker split holds.
    """
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (gpu, multicore, metric)
    lattice_table(gpu)
    lattice_table(multicore)


def _label_chunk_task(
    samples: list[SyntheticSample],
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Picklable worker wrapper labeling one chunk of samples."""
    gpu, multicore, metric = _WORKER_CONTEXT
    return [
        label_sample(sample, gpu, multicore, metric=metric)
        for sample in samples
    ]


def build_training_database(
    gpu: AcceleratorSpec,
    multicore: AcceleratorSpec,
    *,
    num_samples: int = 400,
    metric: str = "time",
    seed: int = 0,
    workers: int = 1,
) -> TrainingDatabase:
    """Generate, auto-tune, and collect the offline database.

    Args:
        gpu / multicore: the accelerator pair to label for.
        num_samples: synthetic samples to generate.
        metric: tuning objective the labels optimize.
        seed: sample-generation seed.
        workers: worker processes to label samples with.  Labeling is a
            pure function of the (pre-generated) sample list and results
            are collected in sample order, so any worker count produces a
            byte-identical database for the same seed.  The requested
            count is clamped to the CPUs the process can run on; samples
            are dispatched in contiguous chunks (a few per worker, specs
            shipped once via the pool initializer), and builds too small
            to amortize process startup (< ``workers × 64`` samples)
            take the serial path outright.
    """
    with obs.span(
        "training.build_database",
        pair=f"{gpu.name}+{multicore.name}",
        num_samples=num_samples,
        workers=workers,
        metric=metric,
    ):
        database = TrainingDatabase(pair=(gpu.name, multicore.name), metric=metric)
        samples = generate_samples(num_samples, seed=seed)
        effective = effective_workers(workers, len(samples))
        if effective > 1:
            chunk_size = -(-len(samples) // (effective * _CHUNKS_PER_WORKER))
            chunks = [
                samples[start : start + chunk_size]
                for start in range(0, len(samples), chunk_size)
            ]
            with ProcessPoolExecutor(
                max_workers=effective,
                initializer=_init_worker,
                initargs=(gpu, multicore, metric),
            ) as pool:
                rows = [
                    row
                    for chunk_rows in pool.map(_label_chunk_task, chunks)
                    for row in chunk_rows
                ]
        else:
            rows = [
                label_sample(sample, gpu, multicore, metric=metric)
                for sample in samples
            ]
        for features, target, best in rows:
            database.add(features, target, best)
        obs.counter("training.samples_labeled", len(rows))
        return database

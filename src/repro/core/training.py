"""Offline training pipeline (Section V's "Offline Learning Formulation").

Synthetic benchmarks (phase mixes per Figure 9) paired with synthetic
graph characteristics (Table III ranges) are swept over the M lattice on
both accelerators; the best configuration per sample becomes the training
label.  The paper runs "several million" hardware combinations over hours;
the vectorized batch evaluator makes each per-sample sweep a handful of
NumPy passes.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.database import TrainingDatabase
from repro.core.encoding import encode_config, encode_features
from repro.machine.specs import AcceleratorSpec
from repro.tuning.exhaustive import best_on_pair
from repro.workload.profile import build_profile
from repro.workload.synthetic import SyntheticSample, generate_samples

__all__ = ["label_sample", "build_training_database"]


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


def build_training_database(
    gpu: AcceleratorSpec,
    multicore: AcceleratorSpec,
    *,
    num_samples: int = 400,
    metric: str = "time",
    seed: int = 0,
) -> TrainingDatabase:
    """Generate, auto-tune, and collect the offline database.

    Args:
        gpu / multicore: the accelerator pair to label for.
        num_samples: synthetic samples to generate.
        metric: tuning objective the labels optimize.
        seed: sample-generation seed.
    """
    with obs.span(
        "training.build_database",
        pair=f"{gpu.name}+{multicore.name}",
        num_samples=num_samples,
        metric=metric,
    ):
        database = TrainingDatabase(pair=(gpu.name, multicore.name), metric=metric)
        samples = generate_samples(num_samples, seed=seed)
        for sample in samples:
            database.add(*label_sample(sample, gpu, multicore, metric=metric))
        obs.counter("training.samples_labeled", len(samples))
        return database

"""Tests for the offline training pipeline and database."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import TrainingDatabase
from repro.core.encoding import NUM_FEATURES, NUM_TARGETS
from repro.core.training import build_training_database, label_sample
from repro.errors import TrainingError
from repro.machine.specs import get_accelerator
from repro.workload.synthetic import generate_samples

GPU = get_accelerator("gtx750ti")
PHI = get_accelerator("xeonphi7120p")


class TestLabelSample:
    def test_shapes_and_optimality(self):
        sample = generate_samples(1, seed=3)[0]
        features, target, best = label_sample(sample, GPU, PHI)
        assert features.shape == (NUM_FEATURES,)
        assert target.shape == (NUM_TARGETS,)
        assert best > 0

    def test_label_beats_defaults(self):
        from repro.accel.simulator import simulate
        from repro.machine.mvars import default_config
        from repro.workload.profile import build_profile

        sample = generate_samples(1, seed=5)[0]
        _, _, best = label_sample(sample, GPU, PHI)
        profile = build_profile(
            sample.trace, sample.bvars,
            target_vertices=sample.graph.num_vertices,
            target_edges=sample.graph.num_edges,
            source_vertices=sample.graph.num_vertices,
            source_edges=sample.graph.num_edges,
        )
        for spec in (GPU, PHI):
            default_time = simulate(
                profile, spec, default_config(spec)
            ).time_s
            assert best <= default_time + 1e-12

    def test_energy_metric_changes_objective(self):
        sample = generate_samples(1, seed=7)[0]
        _, _, best_time = label_sample(sample, GPU, PHI, metric="time")
        _, _, best_energy = label_sample(sample, GPU, PHI, metric="energy")
        # Different units: just confirm both positive and distinct scales.
        assert best_time > 0 and best_energy > 0


class TestBuildDatabase:
    def test_sizes(self):
        db = build_training_database(GPU, PHI, num_samples=6, seed=1)
        assert len(db) == 6
        x, y = db.matrices()
        assert x.shape == (6, NUM_FEATURES)
        assert y.shape == (6, NUM_TARGETS)

    def test_deterministic(self):
        a = build_training_database(GPU, PHI, num_samples=4, seed=2)
        b = build_training_database(GPU, PHI, num_samples=4, seed=2)
        assert a.features == b.features
        assert a.targets == b.targets

    def test_pair_recorded(self):
        db = build_training_database(GPU, PHI, num_samples=2, seed=0)
        assert db.pair == (GPU.name, PHI.name)

    def test_contains_both_accelerator_labels(self):
        db = build_training_database(GPU, PHI, num_samples=30, seed=0)
        bits = {round(t[0]) for t in db.targets}
        assert bits == {0, 1}


class TestDatabasePersistence:
    def test_roundtrip(self, tmp_path):
        db = build_training_database(GPU, PHI, num_samples=3, seed=4)
        path = tmp_path / "db.json"
        db.save(path)
        back = TrainingDatabase.load(path)
        assert back.pair == db.pair
        assert back.features == db.features
        assert back.objectives == db.objectives

    def test_load_malformed(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{}")
        with pytest.raises(TrainingError):
            TrainingDatabase.load(path)

    def test_empty_matrices_rejected(self):
        db = TrainingDatabase(pair=("a", "b"))
        with pytest.raises(TrainingError):
            db.matrices()

    def test_add(self):
        db = TrainingDatabase(pair=("a", "b"))
        db.add(np.zeros(NUM_FEATURES), np.zeros(NUM_TARGETS), 1.0)
        assert len(db) == 1


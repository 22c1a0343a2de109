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


class TestParallelBuild:
    def test_worker_count_does_not_change_content(self, tmp_path):
        serial = build_training_database(GPU, PHI, num_samples=6, seed=3, workers=1)
        parallel = build_training_database(GPU, PHI, num_samples=6, seed=3, workers=3)
        assert serial.features == parallel.features
        assert serial.targets == parallel.targets
        assert serial.objectives == parallel.objectives
        # Byte-identical persistence regardless of worker count.
        serial.save(tmp_path / "serial.json")
        parallel.save(tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()

    def test_more_workers_than_samples(self):
        db = build_training_database(GPU, PHI, num_samples=2, seed=1, workers=8)
        assert len(db) == 2

    def test_single_sample_stays_serial(self):
        db = build_training_database(GPU, PHI, num_samples=1, seed=0, workers=4)
        assert len(db) == 1

    def test_forced_parallel_byte_identical(self, tmp_path, monkeypatch):
        """Force the pool path (small threshold, fake CPU count) and check
        the database is still byte-identical to the serial build."""
        from repro.core import training

        monkeypatch.setattr(training, "_MIN_SAMPLES_PER_WORKER", 2)
        monkeypatch.setattr(training, "available_cpus", lambda: 8)
        serial = build_training_database(GPU, PHI, num_samples=8, seed=3, workers=1)
        parallel = build_training_database(GPU, PHI, num_samples=8, seed=3, workers=2)
        serial.save(tmp_path / "serial.json")
        parallel.save(tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()


class TestEffectiveWorkers:
    def test_available_cpus_positive(self):
        from repro.core.training import available_cpus

        assert available_cpus() >= 1

    def test_clamped_to_cpus(self, monkeypatch):
        from repro.core import training

        monkeypatch.setattr(training, "available_cpus", lambda: 2)
        assert training.effective_workers(8, 10_000) == 2

    def test_serial_when_single_cpu(self, monkeypatch):
        from repro.core import training

        monkeypatch.setattr(training, "available_cpus", lambda: 1)
        assert training.effective_workers(8, 10_000) == 1

    def test_serial_below_amortization_floor(self, monkeypatch):
        from repro.core import training

        monkeypatch.setattr(training, "available_cpus", lambda: 8)
        floor = training._MIN_SAMPLES_PER_WORKER
        assert training.effective_workers(4, 4 * floor - 1) == 1
        assert training.effective_workers(4, 4 * floor) == 4

    def test_workers_one_is_serial(self, monkeypatch):
        from repro.core import training

        monkeypatch.setattr(training, "available_cpus", lambda: 8)
        assert training.effective_workers(1, 10_000) == 1


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


class TestChunkedDispatch:
    def test_chunked_parallel_path_byte_identical(self, tmp_path, monkeypatch):
        """Force the real chunked pool dispatch (the 6-sample default would
        fall back to serial) and pin byte-identity against the serial path."""
        from repro.core import training

        monkeypatch.setattr(training, "_MIN_SAMPLES_PER_WORKER", 3)
        serial = build_training_database(GPU, PHI, num_samples=8, seed=9, workers=1)
        chunked = build_training_database(GPU, PHI, num_samples=8, seed=9, workers=2)
        serial.save(tmp_path / "serial.json")
        chunked.save(tmp_path / "chunked.json")
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "chunked.json"
        ).read_bytes()

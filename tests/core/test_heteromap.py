"""End-to-end tests for the HeteroMap framework."""

from __future__ import annotations

import pytest

from repro.core import heteromap
from repro.core.heteromap import HeteroMap
from repro.core.predictors import make_predictor
from repro.errors import NotTrainedError, UnknownAcceleratorError
from repro.runtime.deploy import prepare_workload


@pytest.fixture(scope="module")
def trained():
    hetero = HeteroMap.with_default_pair(predictor="deep16", seed=3)
    hetero.train(num_samples=40, seed=3)
    return hetero


class TestConstruction:
    def test_pair_roles_sorted(self):
        hetero = HeteroMap(("xeonphi7120p", "gtx750ti"))
        assert hetero.gpu.name == "gtx750ti"
        assert hetero.multicore.name == "xeonphi7120p"

    def test_two_gpus_rejected(self):
        with pytest.raises(UnknownAcceleratorError):
            HeteroMap(("gtx750ti", "gtx970"))

    def test_two_multicores_rejected(self):
        with pytest.raises(UnknownAcceleratorError):
            HeteroMap(("xeonphi7120p", "cpu40core"))

    def test_default_pair(self):
        hetero = HeteroMap.with_default_pair()
        assert hetero.gpu.name == "gtx750ti"


class TestTrainingGate:
    def test_run_before_train(self):
        hetero = HeteroMap.with_default_pair(predictor="deep16")
        with pytest.raises(NotTrainedError):
            hetero.run("sssp_bf", "usa-cal")

    def test_overhead_before_train(self):
        hetero = HeteroMap.with_default_pair(predictor="deep16")
        with pytest.raises(NotTrainedError):
            _ = hetero.overhead_ms


class TestRun(object):
    def test_outcome_fields(self, trained):
        outcome = trained.run("sssp_bf", "cage14")
        assert outcome.benchmark == "sssp_bf"
        assert outcome.dataset == "cage14"
        assert outcome.chosen_accelerator in ("gtx750ti", "xeonphi7120p")
        assert outcome.completion_time_ms > 0
        assert outcome.energy_j > 0
        assert 0.0 <= outcome.utilization <= 1.0

    def test_overhead_charged(self, trained):
        outcome = trained.run("bfs", "cage14")
        assert outcome.completion_time_ms == pytest.approx(
            outcome.result.time_ms + trained.overhead_ms
        )

    def test_prediction_deterministic(self, trained):
        a = trained.run("pagerank", "facebook")
        b = trained.run("pagerank", "facebook")
        assert a.chosen_accelerator == b.chosen_accelerator
        assert a.result.time_ms == b.result.time_ms

    def test_database_retained(self, trained):
        assert trained.database is not None
        assert len(trained.database) == 40


class TestPromotion:
    def test_train_fits_the_promoted_predictor(self, trained, monkeypatch):
        """After a promotion, ``predictor`` is the one that serves, and a
        retrain fits and times it rather than the model it replaced."""
        hetero = HeteroMap.with_default_pair(predictor="linear", seed=3)
        hetero.train(database=trained.database)
        candidate = make_predictor("linear", hetero.gpu, hetero.multicore, seed=3)
        hetero.decisions.swap_predictor(candidate)
        assert hetero.predictor is candidate
        timed = []
        measure = heteromap.measure_overhead_ms
        monkeypatch.setattr(
            heteromap,
            "measure_overhead_ms",
            lambda predictor: timed.append(predictor) or measure(predictor),
        )
        hetero.train(database=trained.database)
        assert hetero.predictor is hetero.decisions.predictor is candidate
        assert timed == [candidate]
        # An unfit candidate would raise NotTrainedError here.
        spec, _ = hetero.predict(prepare_workload("bfs", "cage14"))
        assert spec in (hetero.gpu, hetero.multicore)


class TestBaselines:
    def test_single_accelerator_baselines(self, trained):
        workload = prepare_workload("bfs", "cage14")
        gpu = trained.run_single_accelerator(workload, "gpu")
        phi = trained.run_single_accelerator(workload, "multicore")
        assert gpu.accelerator == "gtx750ti"
        assert phi.accelerator == "xeonphi7120p"

    def test_ideal_beats_everything(self, trained):
        workload = prepare_workload("pagerank", "cage14")
        ideal = trained.run_ideal(workload)
        hm = trained.run_workload(workload)
        gpu = trained.run_single_accelerator(workload, "gpu", tuned=False)
        assert ideal.time_ms <= hm.result.time_ms + 1e-9
        assert ideal.time_ms <= gpu.time_ms + 1e-9

    def test_untuned_baseline_not_faster_than_tuned(self, trained):
        workload = prepare_workload("dfs", "facebook")
        tuned = trained.run_single_accelerator(workload, "gpu", tuned=True)
        untuned = trained.run_single_accelerator(workload, "gpu", tuned=False)
        assert tuned.time_ms <= untuned.time_ms + 1e-9


class TestDecisionTreeMode:
    def test_analytical_predictor_needs_no_samples(self):
        hetero = HeteroMap.with_default_pair(predictor="decision_tree")
        hetero.train(num_samples=1, seed=0)
        outcome = hetero.run("sssp_delta", "usa-cal")
        assert outcome.chosen_accelerator == "xeonphi7120p"

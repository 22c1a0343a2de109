"""Decision-audit records: schema stability and end-to-end emission."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.core.heteromap import HeteroMap
from repro.machine.mvars import MachineConfig, OmpSchedule
from repro.obs.audit import DECISION_FIELDS
from repro.obs.tracer import MAX_KEPT_RECORDS


def _sample_record(**overrides) -> obs.DecisionRecord:
    base = dict(
        benchmark="pagerank",
        dataset="usa-cal",
        predictor="deep128",
        metric="time",
        features=tuple(0.1 * i for i in range(17)),
        chosen_accelerator="gtx750ti",
        config="gpu(g=262144,l=256)",
        predicted_time_ms=10.0,
        predicted_energy_j=2.0,
        predicted_utilization=0.8,
        runner_up_accelerator="xeonphi7120p",
        runner_up_time_ms=15.0,
    )
    base.update(overrides)
    return obs.DecisionRecord(**base)


class TestSchema:
    def test_as_dict_keys_match_frozen_schema(self):
        assert tuple(_sample_record().as_dict().keys()) == DECISION_FIELDS

    def test_margins(self):
        record = _sample_record()
        assert record.margin_ms == pytest.approx(5.0)
        assert record.margin_pct == pytest.approx(50.0)

    def test_negative_margin_flags_mispredict(self):
        record = _sample_record(runner_up_time_ms=8.0)
        assert record.margin_ms == pytest.approx(-2.0)
        assert record.margin_pct == pytest.approx(-20.0)

    def test_zero_predicted_time_has_zero_pct(self):
        record = _sample_record(predicted_time_ms=0.0)
        assert record.margin_pct == 0.0

    def test_as_dict_is_json_serializable(self):
        payload = json.dumps(_sample_record().as_dict())
        assert json.loads(payload)["margin_pct"] == pytest.approx(50.0)


class TestConfigSummary:
    def test_gpu(self):
        config = MachineConfig(
            accelerator="gtx750ti", gpu_global_threads=4096, gpu_local_threads=128
        )
        assert obs.config_summary(config, is_gpu=True) == "gpu(g=4096,l=128)"

    def test_multicore(self):
        config = MachineConfig(
            accelerator="xeonphi7120p",
            cores=61,
            threads_per_core=4,
            simd_width=16,
            omp_schedule=OmpSchedule.DYNAMIC,
            omp_chunk=64,
        )
        assert (
            obs.config_summary(config, is_gpu=False)
            == "mc(c=61,tpc=4,simd=16,sched=dynamic,chunk=64)"
        )


class TestKeptRecords:
    def test_memory_keeps_the_newest_decisions(self, jsonl_obs):
        state, path = jsonl_obs
        emitted = MAX_KEPT_RECORDS + 3
        for i in range(emitted):
            obs.record_decision(_sample_record(predicted_time_ms=float(i + 1)))
        assert len(state.decisions) == MAX_KEPT_RECORDS
        assert state.decisions[0].predicted_time_ms == 4.0
        assert state.decisions[-1].predicted_time_ms == float(emitted)
        lines = path.read_text().splitlines()
        assert len(lines) == emitted


class TestEndToEnd:
    def test_run_emits_one_decision(self, enabled_obs):
        system = HeteroMap.with_default_pair(predictor="linear", seed=7)
        system.train(num_samples=24, seed=7)
        outcome = system.run("sssp_bf", "cage14")

        assert len(enabled_obs.decisions) == 1
        record = enabled_obs.decisions[0]
        assert record.benchmark == "sssp_bf"
        assert record.dataset == "cage14"
        assert record.predictor == "linear"
        assert record.metric == "time"
        assert record.predicted_time_ms == pytest.approx(outcome.result.time_ms)
        assert len(record.features) == 17
        # Chosen and runner-up must be the two distinct accelerators.
        assert {record.chosen_accelerator, record.runner_up_accelerator} == {
            system.gpu.name,
            system.multicore.name,
        }
        assert record.runner_up_time_ms > 0.0
        assert record.chosen_accelerator == outcome.chosen_accelerator

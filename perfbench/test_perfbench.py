"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the
repository root.  The workload runs use ``--tiny`` inputs; they check the
plumbing and the output contract, not performance."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import Ledger, determinism_mismatches, plan_mismatches  # noqa: E402
from layertrace import SpanRecorder, Target, coverage, in_windows, summarize  # noqa: E402
from metrics import END_TO_END, PER_LAYER, PRINTED_ONLY, WORKLOADS  # noqa: E402


def run_bench(*args: str) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    code, lines = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", trace, "--tiny",
    )
    assert code == 0, lines[-20:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = PER_LAYER if trace == "1" else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in table
    }
    printed = table if trace == "1" else END_TO_END + PRINTED_ONLY
    for name, unit, _ in printed:  # the human-readable report
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)


def test_exits_without_result_outside_a_checkout(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def _plans(count: int):
    from repro.core.encoding import NUM_TARGETS, decode_config_batch
    from repro.machine.specs import DEFAULT_PAIR, get_accelerator

    gpu, multicore = (get_accelerator(name) for name in DEFAULT_PAIR)
    vectors = np.random.default_rng(0).random((count, NUM_TARGETS))
    return decode_config_batch(vectors, gpu, multicore), gpu, multicore


def test_plan_check_rejects_a_perturbed_plan():
    served, gpu, multicore = _plans(16)
    expected = list(served)
    assert plan_mismatches(served, expected) == []
    spec, config = served[5]
    nudged = dataclasses.replace(
        config, blocktime_ms=float(np.nextafter(config.blocktime_ms, np.inf))
    )
    assert plan_mismatches(served[:5] + [(spec, nudged)] + served[6:], expected) == [5]
    other = multicore if served[3][0] == gpu else gpu
    assert plan_mismatches(served[:3] + [(other, served[3][1])] + served[4:], expected) == [3]
    assert plan_mismatches(served[:-1], expected) != []


def test_determinism_check_fires_on_a_perturbed_count(tmp_path):
    ledger = Ledger(tmp_path / "ledger.json")
    values = {"accel.simulate_calls_per_workload": 5.0, "online.retrains": 5, "makespan_ms": 12.5}
    assert ledger.check("fleet_run|seed=1", values) == []
    assert ledger.check("fleet_run|seed=1", dict(values)) == []
    perturbed = {**values, "online.retrains": 6}
    assert ledger.check("fleet_run|seed=1", perturbed) == ["online.retrains"]
    # Another seed or source digest is a separate entry, not a mismatch.
    assert ledger.check("fleet_run|seed=2", perturbed) == []
    assert determinism_mismatches({"a": 1}, {"a": 1, "b": 2}) == []


class _Layer:
    def outer(self, rows):
        time.sleep(0.002)
        return self.inner(rows)

    def inner(self, rows):
        time.sleep(0.001)
        return len(rows)


def test_recorder_wraps_restores_and_splits_self_time():
    inner_before = _Layer.__dict__["inner"]
    recorder = SpanRecorder()
    targets = [
        Target(_Layer, "outer", "layer.outer", lambda args: len(args[1])),
        Target(_Layer, "inner", "layer.inner", lambda args: len(args[1])),
    ]
    recorder.install(targets)
    recorder.current_tag = 7
    assert _Layer().outer([1, 2, 3]) == 3
    recorder.uninstall()
    assert _Layer.__dict__["inner"] is inner_before
    table = recorder.table()
    assert table["parent"].tolist() == [-1, 0]
    assert table["tag"].tolist() == [7, 7]
    summary = summarize(recorder, table, np.ones(2, dtype=bool))
    outer, inner = summary["layer.outer"], summary["layer.inner"]
    assert outer["rows"] == inner["rows"] == 3
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    window = [(table["start"][0], table["end"][0])]
    assert in_windows(table, window).tolist() == [True, True]
    covered, total = coverage(table, window)
    assert covered == pytest.approx(total)


def test_windows_scale_throughput_to_the_reference_host():
    import workloads
    from hostspeed import REFERENCE_RATE, Pace

    pace = Pace()
    # Two seconds at the reference speed, then two at half speed with half
    # the work done, then a short tail that joins the last window.
    pace.slices = (
        [(100, 0.5, REFERENCE_RATE)] * 4
        + [(50, 0.5, REFERENCE_RATE / 2)] * 4
        + [(5, 0.1, REFERENCE_RATE / 2)]
    )
    windows = pace.windows(1.0)
    assert [requests for requests, _, _ in windows] == [200, 200, 100, 105]
    assert windows[-1][1] == pytest.approx(1.1)
    result = workloads.windowed(pace, np.ones(605))
    assert result["raw_per_s"] == pytest.approx(150.0)
    assert result["throughput_per_s"] == pytest.approx(200.0)


def test_plan_check_recomputes_instead_of_reading_the_served_cache():
    import workloads
    from repro.core.heteromap import HeteroMap
    from repro.machine.specs import DEFAULT_PAIR
    from repro.runtime.server import DecisionServer

    def trained():
        hetero = HeteroMap(DEFAULT_PAIR, predictor="deep128", seed=workloads.TRAIN_SEED)
        hetero.train(num_samples=workloads.TINY.train_samples)
        return hetero

    def serve(hetero, pool):
        served = [None] * len(pool)
        server = DecisionServer(hetero.decisions)
        workloads._server_loop_step(server, pool, len(pool), served)(0)
        return served

    hetero, reference = trained(), trained()
    pool = workloads.synthetic_pool(workloads.WAVE, seed=7)
    assert workloads.served_plan_errors(reference, pool, serve(hetero, pool)) == []
    cache = hetero.decision_cache
    key = next(iter(cache._entries))
    entry = cache._entries[key]
    nudged = dataclasses.replace(
        entry.config, blocktime_ms=float(np.nextafter(entry.config.blocktime_ms, np.inf))
    )
    cache.put(key, dataclasses.replace(entry, config=nudged))
    errors = workloads.served_plan_errors(reference, pool, serve(hetero, pool))
    assert len(errors) == 1 and "served plans differ" in errors[0]

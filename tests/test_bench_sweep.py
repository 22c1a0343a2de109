"""Tier-1 smoke tests for the lattice-sweep perf harness."""

from __future__ import annotations

import json

import pytest

from repro.benchmarking import bench_sweep
from repro.benchmarking.bench_sweep import check_regressions, main
from repro.core import training


def run_main(tmp_path, *extra):
    output = tmp_path / "BENCH_sweep.json"
    args = [
        "--accelerator", "xeonphi7120p",
        "--samples", "2",
        "--workers", "2",
        "--repeats", "1",
        "--serve-duration", "0.2",
        "--serve-train-samples", "8",
        "--output", str(output),
        *extra,
    ]
    return main(args), output


class TestBenchSweepSmoke:
    def test_emits_payload(self, tmp_path):
        rc, output = run_main(tmp_path)
        assert rc == 0
        payload = json.loads(output.read_text())
        sweep = payload["lattice_sweep"]
        assert sweep["accelerator"] == "xeonphi7120p"
        assert sweep["lattice_points"] > 0
        assert sweep["scalar_configs_per_sec"] > 0
        assert sweep["batch_configs_per_sec"] > 0
        # The acceptance bar for the vectorized sweep.
        assert sweep["speedup"] >= 10.0
        db = payload["db_build"]
        assert db["requested_samples"] == 2
        assert db["serial_build_s"] > 0
        assert db["available_cpus"] >= 1
        if "parallel_skipped" in db:
            # CPU-limited host: the serial-vs-serial "speedup" is noise,
            # so the parallel keys must be absent, not sub-1x.
            assert "parallel_build_s" not in db
            assert "parallel_speedup" not in db
        else:
            # A real parallel run: samples raised to the amortization
            # floor so the pool actually engages.
            assert db["num_samples"] >= 2 * 64
            assert db["parallel_build_s"] > 0
            assert db["parallel_speedup"] > 0

    def test_refuses_regression_without_force(self, tmp_path):
        rc, output = run_main(tmp_path)
        assert rc == 0
        # Forge a baseline with impossible throughput: the fresh run must
        # look like a >25% regression and be refused.
        baseline = json.loads(output.read_text())
        baseline["lattice_sweep"]["batch_configs_per_sec"] *= 1e6
        output.write_text(json.dumps(baseline))
        forged = output.read_text()

        rc, output = run_main(tmp_path)
        assert rc == 2
        assert output.read_text() == forged  # baseline untouched

        rc, output = run_main(tmp_path, "--force")
        assert rc == 0
        recorded = json.loads(output.read_text())
        assert recorded["lattice_sweep"]["batch_configs_per_sec"] < 1e12


class TestRegressionCheck:
    def test_flags_only_large_drops(self):
        old = {"lattice_sweep": {"batch_configs_per_sec": 1000.0}}
        ok = {"lattice_sweep": {"batch_configs_per_sec": 800.0}}
        bad = {"lattice_sweep": {"batch_configs_per_sec": 700.0}}
        assert check_regressions(old, ok) == []
        assert len(check_regressions(old, bad)) == 1

    def test_missing_sections_ignored(self):
        assert check_regressions({}, {"lattice_sweep": {}}) == []

    def test_latency_gate_flags_growth(self):
        old = {"serving_async": {"poisson_p99_ms": 10.0}}
        ok = {"serving_async": {"poisson_p99_ms": 12.0}}
        bad = {"serving_async": {"poisson_p99_ms": 13.0}}
        assert check_regressions(old, ok) == []
        flagged = check_regressions(old, bad)
        assert len(flagged) == 1
        assert "lower is better" in flagged[0]

    def test_latency_gate_ignores_improvement(self):
        old = {"serving_async": {"poisson_p99_ms": 10.0}}
        better = {"serving_async": {"poisson_p99_ms": 2.0}}
        assert check_regressions(old, better) == []

    def test_shard_floor_applies_without_baseline(self):
        below = {
            "shard_scaling": {
                "cpu_limited": False,
                "n4_speedup_vs_single": 1.5,
            }
        }
        flagged = check_regressions({}, below)
        assert len(flagged) == 1
        assert "floor" in flagged[0]

    def test_shard_floor_waived_when_cpu_limited(self):
        below = {
            "shard_scaling": {
                "cpu_limited": True,
                "n4_speedup_vs_single": 0.6,
            }
        }
        assert check_regressions({}, below) == []

    def test_shard_floor_passes_above_bar(self):
        above = {
            "shard_scaling": {
                "cpu_limited": False,
                "n4_speedup_vs_single": 2.4,
            }
        }
        assert check_regressions({}, above) == []

    @staticmethod
    def _adapt(frozen: float, adaptive: float, **extra) -> dict:
        return {
            "adaptation_loop": {
                "frozen_tail_regret_ms": frozen,
                "adaptive_tail_regret_ms": adaptive,
                **extra,
            }
        }

    def test_adapt_floor_applies_to_the_tails_without_baseline(self):
        flagged = check_regressions({}, self._adapt(100.0, 70.0))
        assert len(flagged) == 1
        assert "floor" in flagged[0]
        assert "70.0ms" in flagged[0] and "100.0ms" in flagged[0]

    def test_adapt_floor_passes_a_regret_free_tail(self):
        assert check_regressions({}, self._adapt(58527.4, 0.0)) == []

    def test_adapt_floor_is_met_at_exactly_the_floor(self):
        assert check_regressions({}, self._adapt(150.0, 100.0)) == []

    def test_adapt_sentinel_baseline_does_not_gate_a_real_tail(self):
        # The old payload recorded 240.0 (= requests) for a regret-free
        # tail; a real 10x recovery must not read as a regression from it.
        old = self._adapt(
            58527.4, 0.0, regret_improvement_ratio=240.0,
            adaptive_vs_frozen_rate=0.9,
        )
        new = self._adapt(1000.0, 100.0, adaptive_vs_frozen_rate=0.2)
        assert check_regressions(old, new) == []


class TestSectionSelection:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_partial_run_merges_over_baseline(self, tmp_path, monkeypatch, cpus):
        # Pin the host's CPU count where the bench and the database build
        # read it, so the verdict is the same on any host.
        monkeypatch.setattr(bench_sweep, "available_cpus", lambda: cpus)
        monkeypatch.setattr(training, "available_cpus", lambda: cpus)
        rc, output = run_main(tmp_path, "--sections", "lattice_sweep", "db_build")
        assert rc == 0
        payload = json.loads(output.read_text())
        assert "predict_throughput" not in payload
        # Mark the section a partial rerun must NOT touch.
        payload["lattice_sweep"]["sentinel"] = 123
        output.write_text(json.dumps(payload))

        rc, output = run_main(tmp_path, "--sections", "db_build", "--force")
        assert rc == 0
        merged = json.loads(output.read_text())
        assert merged["lattice_sweep"]["sentinel"] == 123
        db = merged["db_build"]
        assert db["available_cpus"] == cpus
        if cpus == 1:
            # No pool can run: the requested samples, parallel leg skipped.
            assert db["num_samples"] == 2
            assert "parallel_skipped" in db
        else:
            # A real pool: samples raised to the amortization floor.
            assert db["num_samples"] == 128
            assert "parallel_skipped" not in db
            assert db["parallel_build_s"] > 0

    def test_predict_throughput_payload(self, tmp_path):
        rc, output = run_main(
            tmp_path, "--sections", "predict_throughput", "--batch-size", "32"
        )
        assert rc == 0
        payload = json.loads(output.read_text())
        assert "lattice_sweep" not in payload
        section = payload["predict_throughput"]
        assert section["batch_size"] == 32
        for name in ("deep128", "decision_tree", "cart"):
            assert section[f"{name}_scalar_per_sec"] > 0
            assert section[f"{name}_batched_per_sec"] > 0
            assert section[f"{name}_batch_speedup"] > 0
        # CART opts out of the decision cache, so a cached leg would time
        # a path serving never takes; the bench annotates the bypass
        # instead of publishing a misleading sub-1x "cache speedup".
        assert section["cart_cache_bypassed"] is True
        assert "cart_cached_per_sec" not in section
        assert "cart_cache_speedup" not in section
        for name in ("deep128", "decision_tree"):
            assert section[f"{name}_cached_per_sec"] > 0
            assert section[f"{name}_cache_speedup"] > 0

    def test_fleet_scaling_payload(self, tmp_path):
        rc, output = run_main(tmp_path, "--sections", "fleet_scaling")
        assert rc == 0
        payload = json.loads(output.read_text())
        assert "lattice_sweep" not in payload
        section = payload["fleet_scaling"]
        assert section["sizes"] == [2, 4, 8]
        for size in (2, 4, 8):
            assert section[f"n{size}_decisions_per_sec"] > 0
            assert section[f"n{size}_solo_makespan_ms"] > 0
            # Parallel placement never loses to the serial baseline.
            assert section[f"n{size}_speedup"] >= 1.0 - 1e-12

    def test_shard_scaling_payload(self, tmp_path):
        # --force: the absolute floor gate is host-dependent (it only
        # waives itself on CPU-limited hosts) and this smoke run's probe
        # is far too short to measure a real speedup anywhere.
        rc, output = run_main(tmp_path, "--sections", "shard_scaling", "--force")
        assert rc == 0
        payload = json.loads(output.read_text())
        section = payload["shard_scaling"]
        assert section["sizes"] == [2, 4]
        assert section["single_process_per_sec"] > 0
        assert isinstance(section["cpu_limited"], bool)
        for size in (2, 4):
            assert section[f"n{size}_decisions_per_sec"] > 0
            # The invariants the bench raises on: bit-identity with the
            # unsharded plan_batch, zero shedding, shard-local repeats.
            assert section[f"n{size}_identical"] is True
            assert section[f"n{size}_rejected"] == 0
            assert section[f"n{size}_dropped"] == 0
            assert section[f"n{size}_shard_local"] is True
            assert (
                section[f"n{size}_cache_misses_total"]
                == section[f"n{size}_distinct_keys"]
            )

    def test_adaptation_loop_payload(self, tmp_path):
        rc, output = run_main(tmp_path, "--sections", "adaptation_loop")
        assert rc == 0
        section = json.loads(output.read_text())["adaptation_loop"]
        assert "regret_improvement_ratio" not in section
        assert section["promotions"] >= 1
        assert (
            section["adaptive_tail_regret_ms"] * bench_sweep.ADAPT_REGRET_FLOOR
            <= section["frozen_tail_regret_ms"]
        )
        assert section["adaptive_vs_frozen_rate"] == pytest.approx(
            section["adaptive_requests_per_sec"]
            / section["frozen_requests_per_sec"]
        )

    def test_serving_async_payload(self, tmp_path):
        rc, output = run_main(tmp_path, "--sections", "serving_async")
        assert rc == 0
        payload = json.loads(output.read_text())
        assert "lattice_sweep" not in payload
        section = payload["serving_async"]
        assert section["closed_loop_capacity_per_sec"] > 0
        assert section["poisson_decisions_per_sec"] > 0
        assert section["poisson_p99_ms"] >= section["poisson_p50_ms"] >= 0
        assert section["onoff_decisions_per_sec"] > 0
        # Admitted requests always resolve; rejection is the only shedding.
        assert section["poisson_dropped"] == 0
        assert section["onoff_dropped"] == 0
        # Async serving must not change decisions, only their timing.
        assert section["plan_batch_identical"] is True

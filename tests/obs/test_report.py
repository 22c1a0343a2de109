"""The repro-obs-report CLI: section rendering and exit codes."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.obs.report import (
    build_report,
    expand_streams,
    load_events_counted,
    load_streams,
    main,
    merged_metrics,
)


def _write_stream(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def _demo_events():
    registry_dict = {
        "counters": {
            "trace_cache.hit": [{"labels": {"tier": "disk"}, "value": 3.0}],
            "trace_cache.miss": [{"labels": {}, "value": 1.0}],
            "trace_cache.corruption": [{"labels": {}, "value": 1.0}],
        },
        "gauges": {},
        "histograms": {},
    }
    decision = obs.DecisionRecord(
        benchmark="sssp_bf",
        dataset="usa-cal",
        predictor="deep128",
        metric="time",
        features=(0.0,) * 17,
        chosen_accelerator="gtx750ti",
        config="gpu(g=4096,l=128)",
        predicted_time_ms=10.0,
        predicted_energy_j=1.0,
        predicted_utilization=0.9,
        runner_up_accelerator="xeonphi7120p",
        runner_up_time_ms=15.0,
    )
    return [
        {"kind": "span", "pid": 1, "name": "tuning.sweep", "duration_s": 2.0},
        {"kind": "span", "pid": 1, "name": "tuning.sweep", "duration_s": 1.0},
        {"kind": "span", "pid": 1, "name": "deploy.proxy_kernel", "duration_s": 0.5},
        {"kind": "decision", "pid": 1, **decision.as_dict()},
        {"kind": "metrics", "pid": 1, "metrics": registry_dict},
        {"kind": "metrics", "pid": 2, "metrics": registry_dict},
    ]


class TestLoadEvents:
    def test_skips_blank_and_torn_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "span"}\n\n{"kind": "spa')
        assert load_events_counted(path)[0] == [{"kind": "span"}]

    def test_counted_loader_reports_corrupt_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "span"}\nnot json\n{"kind": "spa')
        events, corrupt = load_events_counted(path)
        assert events == [{"kind": "span"}]
        assert corrupt == 2  # blank lines are fine; torn JSON is not


class TestBuildReport:
    def test_sections(self, tmp_path):
        report = build_report(_demo_events())
        assert "6 events from 2 process(es)" in report
        # Spans ranked by total time, sweep (3.0s over 2 calls) first.
        assert report.index("tuning.sweep") < report.index("deploy.proxy_kernel")
        # Metrics snapshots merged across both pids: 3+3 hits, 1+1 misses.
        assert (
            "trace cache: 6 hits / 2 misses (75.0% hit rate), "
            "2 corrupt entries quarantined" in report
        )
        assert "decision audit (1 scheduled workloads" in report
        assert "gpu(g=4096,l=128)" in report
        assert "+50.0%" in report

    def test_empty_stream(self):
        report = build_report([])
        assert "spans: none recorded" in report
        assert "trace cache: no lookups recorded" in report
        assert "decisions: none recorded" in report
        assert "counters: none recorded" in report

    def test_mispredict_and_coinflip_counts(self):
        base = _demo_events()[3]
        mispredict = dict(base, margin_ms=-2.0, margin_pct=-20.0)
        coinflip = dict(base, margin_ms=0.1, margin_pct=1.0)
        report = build_report([base, mispredict, coinflip])
        assert "1 predicted-slower-than-runner-up" in report
        assert "1 within 5% of the runner-up" in report


def _audited_decision(chosen="gtx750ti", costs=(10.0, 15.0), observed=10.0):
    base = _demo_events()[3]
    return dict(
        base,
        chosen_accelerator=chosen,
        devices=["gtx750ti", "xeonphi7120p"],
        costs_ms=list(costs),
        observed_time_ms=observed,
    )


class TestQualitySection:
    def test_renders_regret_table(self):
        events = [
            _audited_decision(),
            _audited_decision(chosen="xeonphi7120p", costs=(10.0, 25.0)),
        ]
        report = build_report(events)
        assert "prediction quality (2 audited placements" in report
        assert "deep128" in report
        assert "sssp_bf" in report
        # The xeonphi pick against a 10ms gtx oracle is a mispick.
        assert "mispick" in report
        assert "drift alarms" in report

    def test_pre_quality_records_fall_back_gracefully(self):
        report = build_report(_demo_events())  # no devices/costs_ms fields
        assert "prediction quality: no regret-auditable decisions" in report
        assert "(1 pre-quality-schema records skipped)" in report


class TestMergedMetrics:
    def test_counters_sum_across_snapshots(self):
        registry = merged_metrics(_demo_events())
        assert registry.counter_value("trace_cache.hit", tier="disk") == 6.0


class TestMultiStream:
    """Merging per-shard JSONL streams with identity preserved."""

    def _write_shard_streams(self, tmp_path, count=3):
        paths = []
        for shard in range(count):
            path = tmp_path / f"obs-shard-{shard}.jsonl"
            _write_stream(path, _demo_events())
            paths.append(path)
        return paths

    def test_expand_streams_glob(self, tmp_path):
        paths = self._write_shard_streams(tmp_path)
        expanded = expand_streams([str(tmp_path / "obs-shard-*.jsonl")])
        assert expanded == sorted(paths)

    def test_expand_streams_literal_passthrough(self, tmp_path):
        missing = tmp_path / "absent.jsonl"
        # A missing literal survives so the CLI can point at it by name.
        assert expand_streams([str(missing)]) == [missing]

    def test_expand_streams_empty_glob_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            expand_streams([str(tmp_path / "nope-*.jsonl")])

    def test_load_streams_tags_stream_identity(self, tmp_path):
        paths = self._write_shard_streams(tmp_path, count=2)
        events, corrupt = load_streams(paths)
        assert corrupt == 0
        assert len(events) == 2 * len(_demo_events())
        assert {e["_stream"] for e in events} == {"obs-shard-0", "obs-shard-1"}

    def test_per_stream_section_renders(self, tmp_path):
        paths = self._write_shard_streams(tmp_path)
        events, _ = load_streams(paths)
        report = build_report(events)
        assert "per-stream breakdown (3 streams merged)" in report
        for shard in range(3):
            assert f"obs-shard-{shard}" in report
        # Metrics still merge across every stream for the global rollup.
        assert "trace cache: 18 hits / 6 misses" in report

    def test_single_stream_has_no_breakdown(self, tmp_path):
        (path,) = self._write_shard_streams(tmp_path, count=1)
        events, _ = load_streams([path])
        assert "per-stream breakdown" not in build_report(events)

    def test_cli_merges_multiple_paths(self, tmp_path, capsys):
        paths = self._write_shard_streams(tmp_path, count=2)
        assert main([str(p) for p in paths]) == 0
        out = capsys.readouterr().out
        assert "per-stream breakdown (2 streams merged)" in out

    def test_cli_accepts_glob(self, tmp_path, capsys):
        self._write_shard_streams(tmp_path, count=2)
        assert main([str(tmp_path / "obs-shard-*.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "obs-shard-0" in out and "obs-shard-1" in out

    def test_cli_corrupt_in_one_stream_names_it(self, tmp_path, capsys):
        good, bad = self._write_shard_streams(tmp_path, count=2)
        with open(bad, "a") as handle:
            handle.write('{"kind": "span", "name": "torn.mid.wri')
        assert main([str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert "1 truncated/corrupt JSONL line(s)" in err


class TestCli:
    def test_report_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        _write_stream(path, _demo_events())
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro-obs report" in out
        assert "decision audit" in out

    def test_prometheus_mode(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        _write_stream(path, _demo_events())
        assert main([str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert 'repro_trace_cache_hit{tier="disk"} 6' in out

    def test_missing_stream_exits_two_with_hint(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "no event stream" in err
        assert "REPRO_OBS=jsonl" in err

    def test_corrupt_lines_exit_one_but_still_report(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        _write_stream(path, _demo_events())
        with open(path, "a") as handle:
            handle.write('{"kind": "span", "name": "torn.mid.wri')
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        # The intact events still render in full...
        assert "decision audit" in captured.out
        # ...and the damage is called out loudly on stderr.
        assert "1 truncated/corrupt JSONL line(s)" in captured.err
        assert str(path) in captured.err
        assert "6 intact events" in captured.err

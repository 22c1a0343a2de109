"""Per-run observability report: ``python -m repro.obs.report [stream]``.

Reads a JSONL event stream produced by a ``REPRO_OBS=jsonl[:path]`` run
(tests, the fuzz driver, a Figure 11 scheduler run, ...) and renders:

* an event census (spans / decisions / logs / metrics snapshots, pids),
* the top spans by total wall-clock time,
* trace-cache hit / miss / corruption ratios,
* serving-path counters: batched-prediction cache hits / misses plus the
  decision cache's size / capacity / eviction gauges,
* the predictor decision-audit table — one row per scheduled workload:
  chosen accelerator, M-configuration, predicted time, and the margin
  over the runner-up accelerator,
* the merged counter registry (summed across processes).

Accepts any number of stream paths (or shell-style globs, quoted so the
CLI expands them — ``repro-obs-report 'runs/obs-shard-*.jsonl'``); the
streams are merged into one summary and, when more than one stream
contributed, a per-stream breakdown table preserves each stream's
identity (e.g. one row per shard worker of a ``repro-serve --shards``
run).

``--prometheus`` instead emits the merged metrics as a Prometheus-style
text snapshot.  Also installed as the ``repro-obs-report`` console
script and wired to ``make obs-report``.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from repro.obs.config import DEFAULT_JSONL_PATH
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import replay_audit

__all__ = [
    "expand_streams",
    "load_events_counted",
    "load_streams",
    "merged_metrics",
    "build_report",
    "main",
]


def load_events_counted(path: Path) -> tuple[list[dict], int]:
    """Parse a JSONL stream; returns ``(events, corrupt_line_count)``.

    Blank lines are ignored; a line torn by a killed writer (truncated
    JSON) is counted and skipped — mirroring the trace-cache quarantine
    behavior — never raised through to the caller.
    """
    events: list[dict] = []
    corrupt = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                corrupt += 1
    return events, corrupt


def expand_streams(patterns: Sequence[str]) -> list[Path]:
    """Resolve stream arguments to concrete paths, in argument order.

    Arguments containing glob metacharacters expand (sorted within each
    pattern); literal paths pass through untouched so a missing literal
    still produces the CLI's "no event stream" error rather than being
    silently dropped.

    Raises:
        FileNotFoundError: for a glob pattern that matches nothing.
    """
    paths: list[Path] = []
    for pattern in patterns:
        if globlib.has_magic(pattern):
            matches = sorted(globlib.glob(pattern))
            if not matches:
                raise FileNotFoundError(
                    f"glob {pattern!r} matched no event streams"
                )
            paths.extend(Path(m) for m in matches)
        else:
            paths.append(Path(pattern))
    return paths


def load_streams(paths: Sequence[Path]) -> tuple[list[dict], int]:
    """Merge several JSONL streams; events keep their stream identity.

    Every event gains a ``_stream`` key (the source file's stem, e.g.
    ``obs-shard-0``), which the per-stream breakdown section groups by.
    Returns ``(events, total_corrupt_lines)``.
    """
    events: list[dict] = []
    corrupt = 0
    for path in paths:
        stream_events, stream_corrupt = load_events_counted(path)
        corrupt += stream_corrupt
        label = path.stem
        for event in stream_events:
            event["_stream"] = label
        events.extend(stream_events)
    return events, corrupt


def merged_metrics(events: Sequence[dict]) -> MetricsRegistry:
    """Fold every per-process metrics snapshot into one registry."""
    registry = MetricsRegistry()
    for event in events:
        if event.get("kind") == "metrics":
            registry.merge_dict(event.get("metrics", {}))
    return registry


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]] + [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _span_section(events: Sequence[dict], top: int) -> str:
    totals: dict[str, tuple[int, float]] = {}
    for event in events:
        if event.get("kind") != "span":
            continue
        count, seconds = totals.get(event["name"], (0, 0.0))
        totals[event["name"]] = (count + 1, seconds + float(event["duration_s"]))
    if not totals:
        return "spans: none recorded"
    ranked = sorted(totals.items(), key=lambda kv: kv[1][1], reverse=True)[:top]
    rows = [
        [name, count, seconds, 1e3 * seconds / count]
        for name, (count, seconds) in ranked
    ]
    return (
        f"top spans by total time (of {len(totals)} distinct):\n"
        + _table(["span", "calls", "total_s", "avg_ms"], rows)
    )


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    return sum(registry.counters.get(name, {}).values())


def _cache_section(registry: MetricsRegistry) -> str:
    hits = _counter_total(registry, "trace_cache.hit")
    misses = _counter_total(registry, "trace_cache.miss")
    corruptions = _counter_total(registry, "trace_cache.corruption")
    lookups = hits + misses
    if lookups == 0 and corruptions == 0:
        return "trace cache: no lookups recorded"
    ratio = 100.0 * hits / lookups if lookups else 0.0
    return (
        f"trace cache: {hits:g} hits / {misses:g} misses "
        f"({ratio:.1f}% hit rate), {corruptions:g} corrupt entries quarantined"
    )


def _gauge_value(registry: MetricsRegistry, name: str) -> float | None:
    series = registry.gauges.get(name)
    if not series:
        return None
    return series.get((), next(iter(series.values())))


def _serve_section(registry: MetricsRegistry) -> str:
    hits = _counter_total(registry, "serve.cache_hit")
    misses = _counter_total(registry, "serve.cache_miss")
    lookups = hits + misses
    if lookups == 0:
        return "serving: no batched predictions recorded"
    ratio = 100.0 * hits / lookups if lookups else 0.0
    line = (
        f"serving: {hits:g} cache hits / {misses:g} misses "
        f"({ratio:.1f}% hit rate)"
    )
    size = _gauge_value(registry, "serve.decision_cache_size")
    capacity = _gauge_value(registry, "serve.decision_cache_capacity")
    evictions = _gauge_value(registry, "serve.decision_cache_evictions")
    if size is not None and capacity is not None:
        line += (
            f"; decision cache {size:g}/{capacity:g} entries, "
            f"{evictions or 0:g} evictions"
        )
    return line


def _decision_section(events: Sequence[dict]) -> str:
    decisions = [e for e in events if e.get("kind") == "decision"]
    if not decisions:
        return "decisions: none recorded"
    rows = [
        [
            d["benchmark"],
            d["dataset"],
            d["chosen_accelerator"],
            d["config"],
            float(d["predicted_time_ms"]),
            d["runner_up_accelerator"],
            f"{float(d['margin_pct']):+.1f}%",
        ]
        for d in decisions
    ]
    coinflips = sum(1 for d in decisions if abs(float(d["margin_pct"])) < 5.0)
    mispredicts = sum(1 for d in decisions if float(d["margin_ms"]) < 0.0)
    return (
        f"decision audit ({len(decisions)} scheduled workloads, "
        f"{mispredicts} predicted-slower-than-runner-up, "
        f"{coinflips} within 5% of the runner-up):\n"
        + _table(
            [
                "benchmark",
                "dataset",
                "chosen",
                "config",
                "pred_ms",
                "runner_up",
                "margin",
            ],
            rows,
        )
    )


def _quality_section(events: Sequence[dict]) -> str:
    """Replay the stream's decision records through the regret tracker."""
    tracker = replay_audit(events)
    summary = tracker.summary()
    if not summary["observed"]:
        suffix = (
            f" ({summary['skipped']} pre-quality-schema records skipped)"
            if summary["skipped"]
            else ""
        )
        return f"prediction quality: no regret-auditable decisions{suffix}"
    rows = [
        [
            key,
            stats["n"],
            stats["regret_oracle_ms"],
            stats["regret_runner_up_ms"],
            f"{100.0 * stats['mispick_rate']:.1f}%",
        ]
        for key, stats in summary["windows"].items()
    ]
    device_bits = ", ".join(
        f"{name} {stats['mispicks']}/{stats['placed']} mispicks "
        f"({100.0 * stats['mispick_rate']:.1f}%)"
        for name, stats in summary["devices"].items()
    )
    drift_bits = (
        ", ".join(
            f"{name}={count}" for name, count in summary["drift_alarms"].items()
        )
        or "none"
    )
    ewma_bits = ", ".join(
        f"{name}={value:.4f}" for name, value in summary["error_ewma"].items()
    )
    return (
        f"prediction quality ({summary['observed']} audited placements, "
        f"{summary['skipped']} skipped):\n"
        + _table(
            [
                "predictor/benchmark",
                "window_n",
                "regret_oracle_ms",
                "regret_runner_up_ms",
                "mispick",
            ],
            rows,
        )
        + f"\nper-device: {device_bits}"
        + f"\ndrift alarms: {drift_bits}; error EWMA: {ewma_bits}"
    )


def _streams_section(events: Sequence[dict]) -> str | None:
    """Per-stream breakdown when several streams were merged.

    One row per source stream (shard identity preserved for sharded
    serving runs): event count, pids, span wall-clock, and that stream's
    own decision-cache hit ratio.  ``None`` for single-stream reports —
    the section only appears when there is something to break down.
    """
    by_stream: dict[str, list[dict]] = {}
    for event in events:
        stream = event.get("_stream")
        if stream is None:
            return None  # events not loaded via load_streams
        by_stream.setdefault(stream, []).append(event)
    if len(by_stream) <= 1:
        return None
    rows = []
    for name, stream_events in sorted(by_stream.items()):
        registry = merged_metrics(stream_events)
        hits = _counter_total(registry, "serve.cache_hit")
        misses = _counter_total(registry, "serve.cache_miss")
        lookups = hits + misses
        span_s = sum(
            float(e["duration_s"])
            for e in stream_events
            if e.get("kind") == "span"
        )
        pids = {e.get("pid") for e in stream_events if "pid" in e}
        rows.append(
            [
                name,
                len(stream_events),
                len(pids),
                span_s,
                f"{hits:g}/{lookups:g}" if lookups else "-",
                f"{100.0 * hits / lookups:.1f}%" if lookups else "-",
            ]
        )
    return (
        f"per-stream breakdown ({len(by_stream)} streams merged):\n"
        + _table(
            ["stream", "events", "pids", "span_s", "cache_hits", "hit_rate"],
            rows,
        )
    )


def _counters_section(registry: MetricsRegistry) -> str:
    if not registry.counters:
        return "counters: none recorded"
    rows = [
        [name, total]
        for name, total in sorted(
            (name, _counter_total(registry, name))
            for name in registry.counters
        )
    ]
    return "counters (summed across processes):\n" + _table(
        ["counter", "total"], rows
    )


def build_report(events: Sequence[dict], *, top: int = 10) -> str:
    """Render the full human-readable report for one event stream."""
    kinds = Counter(event.get("kind", "?") for event in events)
    pids = {event.get("pid") for event in events if "pid" in event}
    census = ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
    registry = merged_metrics(events)
    sections = [
        f"repro-obs report — {len(events)} events from {len(pids)} process(es) "
        f"({census})",
        _span_section(events, top),
        _cache_section(registry),
        _serve_section(registry),
        _streams_section(events),
        _decision_section(events),
        _quality_section(events),
        _counters_section(registry),
    ]
    return "\n\n".join(s for s in sections if s is not None)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a REPRO_OBS JSONL event stream.",
    )
    parser.add_argument(
        "stream",
        nargs="*",
        default=[str(DEFAULT_JSONL_PATH)],
        help="JSONL event stream path(s); quoted glob patterns expand "
        "(e.g. 'runs/obs-shard-*.jsonl'); multiple streams merge into "
        f"one summary (default: {DEFAULT_JSONL_PATH})",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="span rows to show (default: 10)"
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="emit the merged metrics as a Prometheus text snapshot instead",
    )
    args = parser.parse_args(argv)

    try:
        paths = expand_streams(args.stream)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no event stream at {path}", file=sys.stderr)
        print(
            "hint: run with REPRO_OBS=jsonl (or jsonl:<path>) to produce one",
            file=sys.stderr,
        )
        return 2
    events, corrupt = load_streams(paths)
    if args.prometheus:
        sys.stdout.write(merged_metrics(events).to_prometheus())
    else:
        print(build_report(events, top=args.top))
    if corrupt:
        described = ", ".join(str(p) for p in paths)
        print(
            f"error: {corrupt} truncated/corrupt JSONL line(s) in {described} "
            "were skipped (writer killed mid-line?); report covers the "
            f"{len(events)} intact events only",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

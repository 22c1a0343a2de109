"""Metric names, units and directions.

The workloads, the bounded end-to-end metrics and the per-layer metrics
are read from ``BENCHMARK.json`` at the repository root; the metrics that
are printed but carry no bound are listed here.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)

WORKLOADS = tuple(workload["name"] for workload in _SPEC["workloads"])

#: (name, unit, better) of every bounded end-to-end metric: each workload
#: reports all of them.  README.md says what each one means on each
#: workload.
END_TO_END = tuple((m["name"], m["unit"], m["better"]) for m in _SPEC["end_to_end"])

#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"])

#: End-to-end metrics every workload prints by name and unit, left out of
#: the JSON result and of ``BENCHMARK.json`` because they do not hold a
#: bound over ten seeds (README.md gives their spreads): the closed-loop
#: p99 rests on a handful of slow batches or waves per window, and
#: ``regret_ms`` on a few mispicked, very long workloads of each seed.
PRINTED_ONLY = (
    ("latency_p99_ms", "ms", "lower"),
    ("regret_ms", "sim_ms", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PRINTED_ONLY + PER_LAYER}

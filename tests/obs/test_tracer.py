"""Span tracer: nesting, ordering, and determinism under a fake clock."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.obs.tracer import MAX_KEPT_RECORDS


def _record_tuples(state):
    return [
        (r.name, r.index, r.parent, r.depth, r.start_s, r.duration_s)
        for r in state.tracer.records
    ]


class TestNesting:
    def test_tree_shape_and_clock(self, enabled_obs):
        with obs.span("outer", phase="x"):
            with obs.span("inner_a"):
                pass
            with obs.span("inner_b"):
                pass
        # Fake clock ticks once per read: outer start=1, a=(2,3), b=(4,5),
        # outer end=6.  Records land in completion order, children first.
        assert _record_tuples(enabled_obs) == [
            ("inner_a", 1, 0, 1, 2.0, 1.0),
            ("inner_b", 2, 0, 1, 4.0, 1.0),
            ("outer", 0, -1, 0, 1.0, 5.0),
        ]

    def test_deep_nesting_depths(self, enabled_obs):
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
        depths = {r.name: (r.depth, r.parent) for r in enabled_obs.tracer.records}
        assert depths == {"a": (0, -1), "b": (1, 0), "c": (2, 1)}

    def test_sequential_roots_have_no_parent(self, enabled_obs):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        assert [r.parent for r in enabled_obs.tracer.records] == [-1, -1]

    def test_determinism_across_runs(self):
        def run():
            state = obs.configure(
                obs.ObsConfig(enabled=True),
                clock=iter_clock(),
            )
            with obs.span("sweep", accelerator="gtx750ti"):
                with obs.span("batch"):
                    pass
            return _record_tuples(state)

        def iter_clock():
            t = [0.0]

            def clock():
                t[0] += 0.5
                return t[0]

            return clock

        assert run() == run()


class TestAttributes:
    def test_attrs_recorded(self, enabled_obs):
        with obs.span("tuning.sweep", accelerator="phi", metric="time") as span:
            span.set(configs=1953)
        (record,) = enabled_obs.tracer.records
        assert record.attrs == {
            "accelerator": "phi",
            "metric": "time",
            "configs": 1953,
        }

    def test_exception_annotated_and_propagated(self, enabled_obs):
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (record,) = enabled_obs.tracer.records
        assert record.attrs["error"] == "ValueError"


class TestJsonlExport:
    def test_span_events_stream_in_completion_order(self, jsonl_obs):
        state, path = jsonl_obs
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["kind"] for e in events] == ["span", "span"]
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert events[0]["parent"] == events[1]["index"]


class TestKeptRecords:
    def test_memory_keeps_the_newest_and_the_sink_gets_all(self, jsonl_obs):
        state, path = jsonl_obs
        emitted = MAX_KEPT_RECORDS + 7
        for _ in range(emitted):
            with obs.span("tick"):
                pass
        records = state.tracer.records
        assert len(records) == MAX_KEPT_RECORDS
        assert (records[0].index, records[-1].index) == (7, emitted - 1)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["index"] for e in events] == list(range(emitted))

"""Request-scoped trace contexts: minting, scoping, and span tagging."""

from __future__ import annotations

import repro.obs as obs
from repro.obs.trace_context import (
    active_trace_ids,
    active_traces,
    current_trace,
    mint_trace,
    trace_scope,
)


class TestMinting:
    def test_ids_are_unique_and_prefixed(self):
        contexts = [mint_trace() for _ in range(100)]
        ids = {ctx.trace_id for ctx in contexts}
        assert len(ids) == 100
        # All ids from one process share the process-unique prefix.
        prefixes = {ctx.trace_id.rsplit("-", 1)[0] for ctx in contexts}
        assert len(prefixes) == 1


class TestScopes:
    def test_no_scope_by_default(self):
        assert active_traces() == ()
        assert active_trace_ids() == ()
        assert current_trace() is None

    def test_single_scope_sets_current(self):
        ctx = mint_trace()
        with trace_scope((ctx,)):
            assert current_trace() is ctx
            assert active_trace_ids() == (ctx.trace_id,)
        assert current_trace() is None

    def test_batch_scope_has_no_single_current(self):
        a, b = mint_trace(), mint_trace()
        with trace_scope((a, b)):
            assert current_trace() is None
            assert active_trace_ids() == (a.trace_id, b.trace_id)

    def test_none_rows_are_dropped(self):
        a = mint_trace()
        with trace_scope((None, a, None)) as resolved:
            assert resolved == (a,)
            assert active_traces() == (a,)

    def test_scopes_nest_and_restore(self):
        outer, inner = mint_trace(), mint_trace()
        with trace_scope((outer,)):
            with trace_scope((inner,)):
                assert current_trace() is inner
            assert current_trace() is outer


class TestSpanTagging:
    def test_single_scope_tags_trace_id(self, enabled_obs):
        ctx = mint_trace()
        with trace_scope((ctx,)):
            with obs.span("unit.work"):
                pass
        (record,) = enabled_obs.tracer.records
        assert record.attrs["trace_id"] == ctx.trace_id

    def test_batch_scope_tags_trace_ids_list(self, enabled_obs):
        a, b = mint_trace(), mint_trace()
        with trace_scope((a, b)):
            with obs.span("unit.flush"):
                pass
        (record,) = enabled_obs.tracer.records
        assert record.attrs["trace_ids"] == [a.trace_id, b.trace_id]

    def test_unscoped_span_is_untagged(self, enabled_obs):
        with obs.span("unit.naked"):
            pass
        (record,) = enabled_obs.tracer.records
        assert "trace_id" not in record.attrs
        assert "trace_ids" not in record.attrs

    def test_record_span_facade(self, enabled_obs):
        obs.record_span("server.queue_wait", 1.0, 3.5, trace_id="t-1")
        (record,) = enabled_obs.tracer.records
        assert record.name == "server.queue_wait"
        assert record.duration_s == 2.5
        assert record.attrs == {"trace_id": "t-1"}

    def test_trace_link_emits_event_and_counter(self, jsonl_obs):
        import json

        state, path = jsonl_obs
        obs.trace_link("hit-trace", "origin-trace")
        events = [json.loads(line) for line in path.read_text().splitlines()]
        links = [e for e in events if e["kind"] == "trace_link"]
        assert links[0]["trace_id"] == "hit-trace"
        assert links[0]["origin"] == "origin-trace"
        assert state.metrics.counter_value("trace.link") == 1.0

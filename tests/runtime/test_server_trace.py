"""End-to-end request tracing through the serving stack.

Acceptance pin for the observability plane: a trace id minted at
admission must appear on the request's queue-wait, flush, decide,
placement, and execution spans in the JSONL stream, and a decision-cache
hit must link back to the trace that computed the cached entry.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.core.heteromap import HeteroMap
from repro.runtime.deploy import prepare_workload
from repro.runtime.server import DecisionServer, ServerConfig


@pytest.fixture(scope="module")
def hetero():
    model = HeteroMap.with_default_pair(predictor="decision_tree")
    model.train(num_samples=1, seed=0)
    return model


@pytest.fixture(scope="module")
def pool():
    return [
        prepare_workload("pagerank", "facebook"),
        prepare_workload("bfs", "facebook"),
    ]


@pytest.fixture
def traced(tmp_path):
    path = tmp_path / "events.jsonl"
    state = obs.configure(obs.ObsConfig(enabled=True, jsonl_path=path))
    yield state, path
    obs.reset()


def _events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _spans_with(events, trace_id):
    """Span names carrying the trace id (singly or in a batch list)."""
    names = set()
    for event in events:
        if event.get("kind") != "span":
            continue
        attrs = event.get("attrs", {})
        if attrs.get("trace_id") == trace_id or trace_id in (
            attrs.get("trace_ids") or ()
        ):
            names.add(event["name"])
    return names


def _serve(hetero, workloads, *, config=None, tenants=None):
    hetero.decisions.clear_cache()  # module-scoped model: isolate hits
    server = DecisionServer(
        hetero.decisions,
        config
        or ServerConfig(
            max_batch=8, flush_deadline_ms=50.0, queue_capacity=64, mode="run"
        ),
    )
    results = {}
    for i, workload in enumerate(workloads):
        tenant = (tenants or ["default"] * len(workloads))[i]
        assert server.try_submit(
            workload,
            tenant=tenant,
            tag=i,
            callback=lambda tag, result: results.__setitem__(tag, result),
        )
    server.flush_now()
    return server, results


class TestTraceStitching:
    def test_one_trace_id_spans_the_whole_request(self, traced, hetero, pool):
        _, path = traced
        _, results = _serve(hetero, pool)
        assert len(results) == 2
        events = _events(path)
        decisions = [e for e in events if e.get("kind") == "decision"]
        assert len(decisions) == 2
        trace_ids = [d["trace_id"] for d in decisions]
        assert all(trace_ids)
        assert len(set(trace_ids)) == 2  # one id per request
        for trace_id in trace_ids:
            assert _spans_with(events, trace_id) >= {
                "server.queue_wait",
                "server.flush",
                "decision.choose",
                "scheduler.place",
                "backend.execute",
            }

    def test_cache_hit_links_to_originating_trace(self, traced, hetero, pool):
        _, path = traced
        server, _ = _serve(hetero, [pool[0]])
        assert server.try_submit(pool[0], tag=1)  # same feature row: a hit
        server.flush_now()
        events = _events(path)
        miss_trace, hit_trace = [
            d["trace_id"] for d in events if d.get("kind") == "decision"
        ]
        links = [e for e in events if e.get("kind") == "trace_link"]
        assert {"trace_id": hit_trace, "origin": miss_trace} == {
            "trace_id": links[0]["trace_id"],
            "origin": links[0]["origin"],
        }

    def test_plan_mode_flush_carries_batch_trace_ids(self, traced, hetero, pool):
        state, path = traced
        _serve(
            hetero,
            pool,
            config=ServerConfig(
                max_batch=8, flush_deadline_ms=50.0, queue_capacity=64,
                mode="plan",
            ),
        )
        flushes = [
            e for e in _events(path)
            if e.get("kind") == "span" and e["name"] == "server.flush"
        ]
        assert len(flushes[0]["attrs"]["trace_ids"]) == 2


class TestTenantAndShardLabels:
    def test_serve_counters_carry_tenant_and_shard(self, traced, hetero, pool):
        state, _ = traced
        server, results = _serve(
            hetero, pool, tenants=["tenant-a", "tenant-b"]
        )
        routed = state.metrics.counters["server.requests"]
        assert sum(routed.values()) == 2
        for labels in routed:
            keys = dict(labels)
            assert keys["tenant"] in {"tenant-a", "tenant-b"}
            assert keys["shard"] in set(hetero.fleet.names)
        # The shard label matches the device each request was routed to.
        expected = {
            (f"tenant-{'ab'[i]}", results[i].chosen_accelerator)
            for i in range(2)
        }
        assert {
            (dict(labels)["tenant"], dict(labels)["shard"])
            for labels in routed
        } == expected

    def test_per_tenant_latency_series(self, traced, hetero, pool):
        server, _ = _serve(hetero, pool, tenants=["tenant-a", "tenant-b"])
        stats = server.stats
        assert set(stats.tenant_latencies_ms) == {"tenant-a", "tenant-b"}
        assert len(stats.tenant_latencies_ms["tenant-a"]) == 1
        assert stats.tenant_latencies_ms["tenant-a"][0] > 0.0

    def test_quality_observatory_fed_by_run_mode(self, traced, hetero, pool):
        state, _ = traced
        _serve(hetero, pool)
        summary = state.quality.summary()
        assert summary["observed"] == 2
        assert sum(d["placed"] for d in summary["devices"].values()) == 2


class TestDisabledServerPath:
    def test_no_traces_minted_or_residue_left(self, hetero, pool):
        obs.configure(obs.ObsConfig(enabled=False))
        try:
            server, results = _serve(hetero, pool)
            assert len(results) == 2
            state = obs.state()
            assert not state.tracer.records
            assert state.metrics.counters == {}
            assert state.quality is None
            assert state.slos is None
        finally:
            obs.reset()

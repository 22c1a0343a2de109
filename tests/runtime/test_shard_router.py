"""Tests for the shard router over a fixed worker pool.

One router process fans batched decision requests out to N worker
processes, each running its own trained HeteroMap.  The properties that
make that safe: sharded decisions are **bit-identical** to the unsharded
``plan_batch`` path, repeat keys stay **shard-local** (total cache
misses across shards == distinct keys), and backpressure **rejects
instead of dropping**.

decision_tree (the analytical model, train_samples=1) keeps worker
startup cheap; it is per-row exact, so bit-identity holds with no
canonicalization caveats.  ``TestShapeDependentModel`` repeats the
identity and locality checks with deep128, whose predictions depend on
batch shape until the decision layer canonicalizes them.
"""

from __future__ import annotations

import asyncio
import sys
import time

import pytest

from repro.core.heteromap import HeteroMap
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime.deploy import prepare_workload
from repro.runtime.shard import (
    RouterConfig,
    ShardReport,
    ShardRouter,
    ShardSpec,
    stable_hash,
)
from repro.runtime.shard.router import ShardWorkerError

SPEC = ShardSpec(fleet=DEFAULT_PAIR, predictor="decision_tree", train_samples=1)


@pytest.fixture(scope="module")
def pool():
    return [
        prepare_workload("pagerank", "facebook"),
        prepare_workload("bfs", "facebook"),
        prepare_workload("sssp_bf", "usa-cal"),
    ]


@pytest.fixture(scope="module")
def reference(pool):
    """The unsharded decision layer the router must reproduce."""
    model = HeteroMap.with_default_pair(predictor="decision_tree")
    model.train(num_samples=1, seed=0)
    return model.decisions


def make_router(**overrides) -> ShardRouter:
    defaults = dict(shards=2, max_batch=8, queue_capacity=64)
    defaults.update(overrides)
    return ShardRouter(SPEC, RouterConfig(**defaults))


class TestRouterConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"max_batch": 0},
            {"flush_deadline_ms": 0.0},
            {"max_batch": 8, "queue_capacity": 4},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RouterConfig(**kwargs)


class TestBitIdentity:
    def test_sharded_decisions_match_plan_batch(self, pool, reference):
        requests = [pool[i % len(pool)] for i in range(60)]
        expected = reference.plan_batch(requests)
        router = make_router()
        router.launch()
        try:
            results: dict[int, tuple] = {}
            for i, workload in enumerate(requests):
                assert router.try_submit(
                    workload,
                    tag=i,
                    callback=lambda t, r, out=results: out.__setitem__(t, r),
                )
            router.wait_idle()
            assert len(results) == len(requests)
            for i, (spec, config) in enumerate(expected):
                got_spec, got_config = results[i]
                assert got_spec.name == spec.name
                assert got_config == config
        finally:
            report = router.close()
        assert report.completed == len(requests)

    def test_repeat_keys_stay_shard_local(self, pool):
        """Total misses across shards == distinct keys offered."""
        router = make_router(queue_capacity=128)
        router.launch()
        try:
            for i in range(90):
                assert router.try_submit(pool[i % len(pool)])
            router.wait_idle()
        finally:
            report = router.close()
        assert report.cache_misses == len(pool)
        # The router dedupes each flush block before shipping, so the
        # worker caches see one lookup per unique row per block: every
        # lookup after the first per key is a hit.
        assert report.cache_hits == report.unique_rows - len(pool)
        assert report.completed == 90


class TestShapeDependentModel:
    """deep128 rounds a row a few ULP differently alone than inside a
    batch, so its router decisions match ``plan_batch`` only through the
    decision layer's canonicalization of predicted vectors."""

    SPEC = ShardSpec(fleet=DEFAULT_PAIR, predictor="deep128", train_samples=8)
    POOL = (
        ("pagerank", "facebook"),
        ("bfs", "facebook"),
        ("sssp_bf", "usa-cal"),
        ("connected_components", "cage14"),
    )
    REQUESTS = 256

    @pytest.fixture(scope="class")
    def deep_pool(self):
        return [prepare_workload(*item) for item in self.POOL]

    @pytest.fixture(scope="class")
    def deep_reference(self):
        model = HeteroMap(
            self.SPEC.fleet, predictor=self.SPEC.predictor, seed=self.SPEC.seed
        )
        model.train(num_samples=self.SPEC.train_samples, seed=self.SPEC.seed)
        return model.decisions

    @pytest.mark.parametrize("shards", [2, 4])
    def test_plan_identity_and_locality(self, shards, deep_pool, deep_reference):
        requests = [deep_pool[i % len(deep_pool)] for i in range(self.REQUESTS)]
        expected = deep_reference.plan_batch(requests)
        router = ShardRouter(
            self.SPEC,
            RouterConfig(shards=shards, max_batch=512, queue_capacity=16384),
        )
        router.launch()
        try:
            results: dict[int, tuple] = {}
            for i, workload in enumerate(requests):
                assert router.try_submit(
                    workload,
                    tag=i,
                    callback=lambda t, r, out=results: out.__setitem__(t, r),
                )
            router.wait_idle()
        finally:
            report = router.close()
        assert [results[i] for i in range(len(requests))] == expected
        assert router.stats.rejected == 0
        assert router.stats.dropped == 0
        assert report.completed == len(requests)
        assert report.cache_misses == len(deep_pool)


class TestFanOut:
    # At 2 shards this pool splits 2/2: pagerank/facebook and
    # sssp_bf/usa-cal hash to slot 0, bfs/usa-cal and dfs/facebook to
    # slot 1.  The module's pool lands wholly in slot 0.
    POOL = (
        ("pagerank", "facebook"),
        ("sssp_bf", "usa-cal"),
        ("bfs", "usa-cal"),
        ("dfs", "facebook"),
    )

    def test_two_shards_both_complete_requests(self, reference):
        fanned = [prepare_workload(*item) for item in self.POOL]
        slots = [stable_hash(w.feature_row.tobytes()) % 2 for w in fanned]
        assert slots == [0, 0, 1, 1]
        requests = [fanned[i % len(fanned)] for i in range(40)]
        expected = reference.plan_batch(requests)
        router = make_router()
        router.launch()
        try:
            results: dict[int, tuple] = {}
            for i, workload in enumerate(requests):
                assert router.try_submit(
                    workload,
                    tag=i,
                    callback=lambda t, r, o=results: o.__setitem__(t, r),
                )
            router.wait_idle()
        finally:
            report = router.close()
        assert [results[i] for i in range(len(requests))] == expected
        completed = {s.shard: s.completed for s in report.shards}
        assert completed == {"shard-0": 20, "shard-1": 20}
        assert report.cache_misses == len(fanned)


class TestBackpressure:
    def test_rejects_beyond_capacity_without_dropping(self, pool):
        router = make_router(shards=2, max_batch=8, queue_capacity=8)
        router.launch()
        try:
            # A tight burst overruns the 8-deep admission window.  How
            # many squeeze in depends on worker speed, but conservation
            # must hold: every request is either rejected at admission
            # or completed — never silently dropped.
            outcomes = [router.try_submit(pool[i % len(pool)]) for i in range(50)]
            admitted = outcomes.count(True)
            assert outcomes.count(False) >= 1
            assert router.stats.rejected == 50 - admitted
            assert router.retry_after_s() > 0.0
            router.wait_idle()
        finally:
            report = router.close()
        assert router.stats.dropped == 0
        assert report.completed == admitted

    def test_async_submit_resolves(self, pool):
        async def scenario():
            router = make_router()
            async with router:
                spec, config = await router.submit(pool[0])
                assert spec.name
                assert config.accelerator == spec.name
            return router

        router = asyncio.run(scenario())
        assert router.stats.completed == 1


class TestConcurrency:
    def test_single_writer_counters_under_switch_pressure(self, pool):
        """The admission thread and the collector share the window's
        counters without a lock.  A lost update would leave ``pending``
        stuck above zero (``wait_idle`` times out) or the sample lists
        out of step with ``completed``."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        router = make_router(shards=4)
        try:
            router.launch()
            results: dict[int, tuple] = {}
            outcomes = [
                router.try_submit(
                    pool[i % len(pool)],
                    tag=i,
                    callback=lambda t, r, o=results: o.__setitem__(t, r),
                )
                for i in range(600)
            ]
            router.wait_idle(timeout_s=60.0)
        finally:
            sys.setswitchinterval(previous)
            report = router.close()
        stats = router.stats
        admitted = outcomes.count(True)
        assert stats.admitted == admitted == stats.completed == len(results)
        assert stats.rejected == len(outcomes) - admitted
        assert router.pending == 0
        assert len(stats.latencies_ms) == len(stats.queue_waits_ms) == admitted
        assert report.completed == admitted


class TestWorkerFailure:
    def test_dead_worker_raises_instead_of_hanging(self, pool):
        router = make_router()
        router.launch()
        try:
            # A protocol violation kills one worker; it reports the error.
            router._pool[0].request_queue.put(("bogus",))
            with pytest.raises(ShardWorkerError):
                for _ in range(2000):
                    router.try_submit(pool[0])
                    time.sleep(0.005)
            with pytest.raises(ShardWorkerError):
                router.wait_idle()
            with pytest.raises(ShardWorkerError):
                asyncio.run(router.drain())
        finally:
            with pytest.raises(ShardWorkerError):
                router.close()


class TestReport:
    def test_report_shape_and_rollup(self, pool):
        router = make_router()
        router.launch()
        try:
            for i in range(24):
                assert router.try_submit(pool[i % len(pool)])
            router.wait_idle()
        finally:
            report = router.close()
        assert isinstance(report, ShardReport)
        assert len(report.shards) == 2
        assert {s.shard for s in report.shards} == {"shard-0", "shard-1"}
        assert all(s.pid > 0 for s in report.shards)
        assert report.completed == 24
        assert report.completed == sum(s.completed for s in report.shards)
        assert sum(report.device_counts.values()) >= len(pool)
        assert any("shard" in line for line in report.lines())

    def test_close_is_idempotent(self, pool):
        router = make_router()
        router.launch()
        router.try_submit(pool[0])
        router.wait_idle()
        first = router.close()
        assert router.close() is first

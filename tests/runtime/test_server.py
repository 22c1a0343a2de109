"""Tests for the async serving front end (dynamic batching server)."""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.core.heteromap import HeteroMap
from repro.errors import NotTrainedError
from repro.runtime.deploy import prepare_workload
from repro.runtime.server import (
    DecisionServer,
    ServerConfig,
    ServerOverloadedError,
    ServerStats,
    low_latency_gc,
)


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
        prepare_workload("sssp_bf", "usa-cal"),
    ]


def make_server(hetero, **overrides) -> DecisionServer:
    defaults = dict(max_batch=4, flush_deadline_ms=5.0, queue_capacity=64)
    defaults.update(overrides)
    return DecisionServer(hetero.decisions, ServerConfig(**defaults))


class TestServerConfig:
    def test_defaults_valid(self):
        config = ServerConfig()
        assert config.max_batch >= 1
        assert config.queue_capacity >= config.max_batch

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"flush_deadline_ms": 0.0},
            {"max_batch": 8, "queue_capacity": 4},
            {"mode": "stream"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)


class TestSizeFlush:
    """Size-triggered flushes need no event loop (inline, synchronous)."""

    def test_flushes_at_max_batch(self, hetero, pool):
        server = make_server(hetero, max_batch=3)
        order: list[int] = []
        for i in range(3):
            assert server.try_submit(
                pool[i % len(pool)], tag=i, callback=lambda t, _r, o=order: o.append(t)
            )
        assert server.pending == 0
        assert order == [0, 1, 2]
        assert server.stats.flushes == 1
        assert server.stats.flush_reasons["size"] == 1
        assert server.stats.batch_sizes == [3]

    def test_below_max_batch_stays_pending(self, hetero, pool):
        server = make_server(hetero, max_batch=4)
        server.try_submit(pool[0])
        server.try_submit(pool[1])
        assert server.pending == 2
        assert server.stats.completed == 0
        assert server.flush_now() == 2
        assert server.pending == 0
        assert server.stats.flush_reasons["drain"] == 1

    def test_results_match_plan_batch(self, hetero, pool):
        server = make_server(hetero, max_batch=len(pool))
        got: dict[int, object] = {}
        for i, workload in enumerate(pool):
            server.try_submit(workload, tag=i, callback=lambda t, r, g=got: g.__setitem__(t, r))
        expected = hetero.decisions.plan_batch(pool)
        for i, (spec, config) in enumerate(expected):
            assert got[i][0] is spec
            assert got[i][1] == config


class TestDeadlineFlush:
    def test_deadline_flushes_partial_batch(self, hetero, pool):
        async def scenario():
            async with make_server(
                hetero, max_batch=64, flush_deadline_ms=2.0
            ) as server:
                done = asyncio.get_running_loop().create_future()
                server.try_submit(
                    pool[0],
                    tag="only",
                    callback=lambda t, r: done.done() or done.set_result((t, r)),
                )
                tag, _result = await asyncio.wait_for(done, timeout=2.0)
                assert tag == "only"
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.flush_reasons["deadline"] == 1
        assert stats.completed == 1

    def test_submit_awaits_result(self, hetero, pool):
        async def scenario():
            async with make_server(
                hetero, max_batch=64, flush_deadline_ms=1.0
            ) as server:
                spec, config = await server.submit(pool[0])
                return spec, config

        spec, config = asyncio.run(scenario())
        expected_spec, expected_config = hetero.decisions.plan_batch([pool[0]])[0]
        assert spec is expected_spec
        assert config == expected_config


class TestDrainAndStop:
    def test_drain_resolves_everything(self, hetero, pool):
        async def scenario():
            server = make_server(hetero, max_batch=64).start()
            for i in range(10):
                server.try_submit(pool[i % len(pool)])
            await server.drain()
            return server

        server = asyncio.run(scenario())
        assert server.pending == 0
        assert server.stats.completed == 10
        assert server.stats.dropped == 0

    def test_stop_without_flush_counts_drops(self, hetero, pool):
        async def scenario():
            server = make_server(hetero, max_batch=64).start()
            for _ in range(3):
                server.try_submit(pool[0])
            await server.stop(flush=False)
            return server

        server = asyncio.run(scenario())
        assert server.stats.dropped == 3
        assert server.stats.completed == 0
        assert server.pending == 0


class TestBackpressure:
    def test_burst_rejection_and_retry_after(self, hetero, pool):
        """A burst bigger than queue_capacity within one loop turn is
        rejected at the brim (size flushes are deferred to the next turn,
        so the bounded queue is what actually absorbs the burst)."""

        async def scenario():
            server = make_server(hetero, max_batch=4, queue_capacity=8).start()
            outcomes = [server.try_submit(pool[0]) for _ in range(10)]
            retry = server.retry_after_s()
            await server.drain()
            return server, outcomes, retry

        server, outcomes, retry = asyncio.run(scenario())
        assert outcomes.count(True) == 8
        assert outcomes.count(False) == 2
        assert server.stats.rejected == 2
        assert retry > 0
        assert server.stats.completed == 8
        assert server.stats.dropped == 0

    def test_sync_size_flush_keeps_queue_below_capacity(self, hetero, pool):
        """Without a loop, size flushes run inline, so a synchronous
        caller is never rejected (the flush IS the backpressure)."""
        server = make_server(hetero, max_batch=4, queue_capacity=4)
        assert all(server.try_submit(pool[0]) for _ in range(12))
        assert server.stats.rejected == 0
        assert server.stats.flush_reasons["size"] == 3

    def test_submit_raises_overloaded(self, hetero, pool):
        async def scenario():
            server = make_server(hetero, max_batch=4, queue_capacity=4).start()
            for _ in range(4):
                server.try_submit(pool[0])
            with pytest.raises(ServerOverloadedError) as info:
                await server.submit(pool[0])
            await server.stop()
            return info.value

        error = asyncio.run(scenario())
        assert error.retry_after_s > 0
        assert error.pending == 4


class TestSinkFailure:
    def test_failed_flush_counts_drops_and_drain_returns(self, pool):
        """A flush that raises can never resolve its batch: the batch is
        counted as dropped, so ``pending`` returns to zero and a later
        drain does not wait on it."""
        untrained = HeteroMap.with_default_pair(predictor="decision_tree")
        server = DecisionServer(
            untrained.decisions, ServerConfig(max_batch=2, queue_capacity=8)
        )
        assert server.try_submit(pool[0])
        with pytest.raises(NotTrainedError):
            server.try_submit(pool[1])  # the inline size flush raises
        assert server.stats.dropped == 2
        assert server.stats.completed == 0
        assert server.pending == 0
        asyncio.run(asyncio.wait_for(server.drain(), timeout=5.0))


class TestFairness:
    def test_round_robin_across_tenants(self, hetero, pool):
        server = make_server(hetero, max_batch=6, queue_capacity=16)
        order: list[str] = []
        record = lambda tag, _r: order.append(tag)  # noqa: E731
        for tag in ("a1", "a2", "a3"):
            server.try_submit(pool[0], tenant="a", tag=tag, callback=record)
        for tag in ("b1", "b2"):
            server.try_submit(pool[1], tenant="b", tag=tag, callback=record)
        server.try_submit(pool[2], tenant="a", tag="a4", callback=record)
        # 6th admission hits max_batch; assembly alternates tenants.
        assert order == ["a1", "b1", "a2", "b2", "a3", "a4"]
        assert server.stats.flush_reasons["size"] == 1

    def test_single_tenant_fifo(self, hetero, pool):
        server = make_server(hetero, max_batch=3)
        order: list[int] = []
        for i in range(3):
            server.try_submit(
                pool[0], tag=i, callback=lambda t, _r, o=order: o.append(t)
            )
        assert order == [0, 1, 2]


class TestCacheInteraction:
    """Satellite: stats stay consistent across in-flight flushes."""

    def test_same_key_across_two_flushes(self, pool):
        model = HeteroMap.with_default_pair(predictor="decision_tree")
        model.train(num_samples=1, seed=0)
        cache = model.decision_cache
        cache.clear()
        hits0, misses0 = cache.stats.hits, cache.stats.misses
        server = DecisionServer(
            model.decisions, ServerConfig(max_batch=2, queue_capacity=8)
        )
        dup = pool[0]
        # Flush 1: duplicate key twice -> one miss, in-batch share.
        server.try_submit(dup)
        server.try_submit(dup)
        assert cache.stats.misses - misses0 == 1
        assert cache.stats.hits - hits0 == 0
        # Flush 2: same key again plus a new one -> one hit, one miss.
        server.try_submit(dup)
        server.try_submit(pool[2])
        assert cache.stats.misses - misses0 == 2
        assert cache.stats.hits - hits0 == 1
        assert cache.stats.lookups == cache.stats.hits + cache.stats.misses
        assert server.stats.flushes == 2

    def test_feature_memo_skips_reencode(self, hetero, pool):
        server = make_server(hetero, max_batch=1)
        calls = []
        original = server.decisions.encode

        def counting_encode(workloads):
            calls.append(len(workloads))
            return original(workloads)

        server.decisions.encode = counting_encode
        try:
            server.try_submit(pool[0])
            server.try_submit(pool[0])
            server.try_submit(pool[0])
        finally:
            server.decisions.encode = original
        # Same workload object: encoded once, memo-hit afterwards.
        assert len(calls) == 1

    def test_memo_epoch_reset_bounded(self, hetero):
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=1, queue_capacity=4, feature_memo_capacity=2),
        )
        workloads = [
            prepare_workload("pagerank", "facebook"),
            prepare_workload("bfs", "facebook"),
            prepare_workload("sssp_bf", "usa-cal"),
        ]
        for workload in workloads:
            server.try_submit(workload)
        assert len(server._feature_memo) <= 2


class TestModes:
    def test_decide_mode_returns_decisions(self, hetero, pool):
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=2, queue_capacity=8, mode="decide"),
        )
        got = []
        server.try_submit(pool[0], callback=lambda _t, r: got.append(r))
        server.try_submit(pool[1], callback=lambda _t, r: got.append(r))
        assert len(got) == 2
        assert got[0].workload is pool[0]
        assert got[0].chosen.result.time_ms > 0
        assert got[0].other.spec.name != got[0].chosen.spec.name

    def test_run_mode_returns_outcomes(self, hetero, pool):
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=2, queue_capacity=8, mode="run"),
        )
        got = []
        server.try_submit(pool[0], callback=lambda _t, r: got.append(r))
        server.try_submit(pool[1], callback=lambda _t, r: got.append(r))
        assert len(got) == 2
        assert got[0].benchmark == pool[0].benchmark
        assert got[0].completion_time_ms > 0


class TestStats:
    def test_percentiles_empty(self):
        stats = ServerStats()
        assert stats.latency_percentile(99) == 0.0
        assert stats.queue_wait_percentile(50) == 0.0
        assert stats.mean_batch == 0.0

    def test_latency_includes_queue_wait(self, hetero, pool):
        ticks = iter([0.0, 0.5, 0.6])  # arrival, flush start, flush done
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=8, queue_capacity=8),
            clock=lambda: next(ticks),
        )
        server.try_submit(pool[0])
        server.flush_now()
        assert server.stats.queue_waits_ms == [500.0]
        assert server.stats.latencies_ms == [600.0]


class TestLowLatencyGC:
    def test_restores_gc_state(self):
        assert gc.isenabled()
        with low_latency_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_disabled_state(self):
        gc.disable()
        try:
            with low_latency_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestLoopBinding:
    def test_rebind_same_loop_ok(self, hetero):
        async def scenario():
            server = make_server(hetero)
            server.start()
            server.start()  # idempotent

        asyncio.run(scenario())

    def test_rebind_different_loop_rejected(self, hetero):
        server = make_server(hetero)

        async def bind():
            server.start()

        asyncio.run(bind())
        with pytest.raises(RuntimeError):
            asyncio.run(bind())

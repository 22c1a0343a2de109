"""Tests for the open-loop load generator and its arrival traces."""

from __future__ import annotations

import asyncio
import queue
import threading
import time

import numpy as np
import pytest

from repro.core.heteromap import HeteroMap
from repro.runtime.deploy import prepare_workload
from repro.runtime.loadgen import (
    onoff_arrivals,
    poisson_arrivals,
    run_open_loop,
)
from repro.runtime.server import (
    AdmissionWindow,
    DecisionServer,
    ServerConfig,
    WindowConfig,
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


class TestPoissonArrivals:
    def test_deterministic_by_seed(self):
        a = poisson_arrivals(1000, 1.0, seed=7)
        b = poisson_arrivals(1000, 1.0, seed=7)
        assert np.array_equal(a, b)
        c = poisson_arrivals(1000, 1.0, seed=8)
        assert not np.array_equal(a, c)

    def test_sorted_within_window(self):
        times = poisson_arrivals(500, 2.0, seed=1)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0
        assert times[-1] < 2.0

    def test_rate_approximately_met(self):
        times = poisson_arrivals(10_000, 1.0, seed=2)
        # 10k expected, sigma = 100: a 5-sigma band is deterministic here.
        assert 9_500 <= len(times) <= 10_500

    @pytest.mark.parametrize("rate,duration", [(0, 1.0), (100, 0), (-5, 1.0)])
    def test_invalid_rejected(self, rate, duration):
        with pytest.raises(ValueError):
            poisson_arrivals(rate, duration)


class TestOnOffArrivals:
    def test_pure_bursts_land_in_on_windows(self):
        times = onoff_arrivals(
            2000, duration_s=1.0, period_s=0.2, duty=0.5, seed=3
        )
        phase = np.mod(times, 0.2)
        assert np.all(phase < 0.1)
        assert np.all(np.diff(times) >= 0)

    def test_base_rate_fills_off_windows(self):
        times = onoff_arrivals(
            2000,
            duration_s=1.0,
            period_s=0.2,
            duty=0.5,
            base_rate_per_s=500,
            seed=3,
        )
        phase = np.mod(times, 0.2)
        assert np.any(phase >= 0.1)
        assert np.all(np.diff(times) >= 0)

    def test_mean_rate_tracks_duty(self):
        times = onoff_arrivals(
            10_000, duration_s=2.0, period_s=0.1, duty=0.5, seed=4
        )
        mean_rate = len(times) / 2.0
        assert 4_000 <= mean_rate <= 6_000  # ~duty * burst

    def test_full_duty_equals_poisson(self):
        on = onoff_arrivals(1000, duration_s=1.0, duty=1.0, seed=5)
        poisson = poisson_arrivals(1000, 1.0, seed=5)
        assert np.array_equal(on, poisson)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duty": 0.0},
            {"duty": 1.5},
            {"period_s": 0.0},
            {"base_rate_per_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        defaults = dict(duration_s=1.0)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            onoff_arrivals(1000, **defaults)


class CollectorWindow(AdmissionWindow):
    """Completes every batch on one collector thread, as the shard
    router does: callbacks run before ``completed`` counts them."""

    def __init__(self) -> None:
        config = WindowConfig(max_batch=4, flush_deadline_ms=1.0)
        super().__init__(config, time.monotonic)
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._collector = threading.Thread(target=self._collect, daemon=True)
        self._collector.start()

    def _sink(self, batch, reason, flush_start) -> None:
        self._inbox.put((batch, flush_start))

    def _collect(self) -> None:
        while (item := self._inbox.get()) is not None:
            batch, flush_start = item
            self._complete(batch, [None] * len(batch), flush_start, self.clock())

    def close(self) -> None:
        self._inbox.put(None)
        self._collector.join(timeout=5.0)
        assert not self._collector.is_alive()


class TestRunOpenLoop:
    def run(self, server, arrivals, pool, **kwargs):
        async def scenario():
            async with server:
                return await run_open_loop(server, arrivals, pool, **kwargs)

        return asyncio.run(scenario())

    def test_report_accounting(self, hetero, pool):
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=64, flush_deadline_ms=1.0, queue_capacity=4096),
        )
        arrivals = poisson_arrivals(2000, 0.25, seed=9)
        report = self.run(server, arrivals, pool, label="smoke")
        assert report.label == "smoke"
        assert report.offered == len(arrivals)
        assert report.admitted + report.rejected == report.offered
        assert report.completed == report.admitted
        assert report.dropped == 0
        assert report.sustained_per_sec > 0
        assert report.latency_p99_ms >= report.latency_p50_ms >= 0
        assert report.flushes > 0
        assert report.results is None

    def test_warm_up_completion_stays_outside_the_window(self, pool):
        """A warm-up request whose callback already ran but whose
        completion is not yet counted must not land in the report."""
        window = CollectorWindow()

        async def scenario():
            window.start()
            loop = asyncio.get_running_loop()
            warmed = loop.create_future()

            def slow_callback(_tag, _result):
                loop.call_soon_threadsafe(warmed.set_result, None)
                time.sleep(0.2)  # the collector counts it after this

            assert window.try_submit(pool[0], callback=slow_callback)
            await warmed
            arrivals = np.linspace(0.0, 0.05, 20)
            return await run_open_loop(window, arrivals, pool)

        try:
            report = asyncio.run(scenario())
        finally:
            window.close()
        assert report.admitted == 20
        assert report.completed == report.admitted
        assert report.dropped == 0

    def test_results_bit_identical_to_plan_batch(self, hetero, pool):
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=32, flush_deadline_ms=1.0, queue_capacity=4096),
        )
        arrivals = poisson_arrivals(1000, 0.2, seed=10)
        report = self.run(
            server, arrivals, pool, collect_results=True, label="identity"
        )
        assert report.results is not None
        assert len(report.results) == report.admitted
        submitted = [pool[i % len(pool)] for i in range(report.offered)]
        expected = hetero.decisions.plan_batch(submitted)
        assert report.rejected == 0
        for (spec, config), (want_spec, want_config) in zip(
            report.results, expected
        ):
            assert spec is want_spec
            assert config == want_config

    def test_multi_tenant_round_robin(self, hetero, pool):
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=16, flush_deadline_ms=1.0, queue_capacity=1024),
        )
        arrivals = poisson_arrivals(1000, 0.1, seed=11)
        report = self.run(
            server, arrivals, pool, tenants=("t0", "t1", "t2"), label="tenants"
        )
        assert report.completed == report.admitted
        assert report.dropped == 0

    def test_as_dict_round_trips(self, hetero, pool):
        import json

        server = DecisionServer(
            hetero.decisions,
            ServerConfig(max_batch=16, flush_deadline_ms=1.0, queue_capacity=1024),
        )
        report = self.run(
            server, poisson_arrivals(500, 0.1, seed=12), pool, label="json"
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["label"] == "json"
        assert payload["offered"] == report.offered
        assert "results" not in payload

    def test_empty_pool_rejected(self, hetero):
        server = DecisionServer(hetero.decisions)

        async def scenario():
            async with server:
                await run_open_loop(server, np.array([0.0]), [])

        with pytest.raises(ValueError):
            asyncio.run(scenario())

    def test_empty_tenants_rejected(self, hetero, pool):
        server = DecisionServer(hetero.decisions)

        async def scenario():
            async with server:
                await run_open_loop(server, np.array([0.0]), pool, tenants=())

        with pytest.raises(ValueError):
            asyncio.run(scenario())

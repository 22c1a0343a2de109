"""Synthetic open-loop load generation for the async serving front end.

Open-loop (arrival-driven) benchmarking is the honest way to measure a
serving system: arrival times are drawn *in advance* from a stochastic
process and requests are injected on that schedule whether or not earlier
requests have finished, so queueing delay shows up in the measured
latency instead of silently throttling the offered load (the
coordinated-omission trap of closed-loop drivers).

Two trace families cover the paper-adjacent scenarios:

* :func:`poisson_arrivals` — memoryless heavy traffic at a constant
  offered rate (the "millions of users" steady state);
* :func:`onoff_arrivals` — bursty ON/OFF (interrupted Poisson) traffic
  that slams the admission queue during ON windows, exercising
  backpressure and the retry-after path.

:func:`run_open_loop` drives any :class:`~repro.runtime.server.AdmissionWindow`
(the single-process server or the shard router) with a trace over a
workload pool and returns an :class:`OpenLoopReport`
with sustained decisions/sec, latency/queue-wait percentiles, and
admission accounting.  Traces are seeded and fully deterministic.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.runtime.deploy import Workload
from repro.runtime.server import AdmissionWindow

__all__ = [
    "OpenLoopReport",
    "onoff_arrivals",
    "poisson_arrivals",
    "run_open_loop",
]


def poisson_arrivals(
    rate_per_s: float, duration_s: float, *, seed: int = 0
) -> np.ndarray:
    """Arrival offsets (seconds, sorted) of a Poisson process.

    Raises:
        ValueError: for a non-positive rate or duration.
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate_per_s and duration_s must be positive")
    rng = np.random.default_rng(seed)
    # Draw ~N + 5 sigma exponential gaps, then trim to the window.
    expected = rate_per_s * duration_s
    count = int(expected + 5.0 * np.sqrt(expected) + 16)
    while True:
        gaps = rng.exponential(1.0 / rate_per_s, size=count)
        times = np.cumsum(gaps)
        if times[-1] >= duration_s:
            return times[times < duration_s]
        count *= 2  # astronomically rare: the draw fell short, redraw wider


def onoff_arrivals(
    burst_rate_per_s: float,
    *,
    duration_s: float,
    period_s: float = 0.2,
    duty: float = 0.5,
    base_rate_per_s: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Bursty ON/OFF (interrupted Poisson) arrival offsets, sorted.

    ON windows (the first ``duty`` fraction of every ``period_s``) carry
    Poisson traffic at ``burst_rate_per_s``; OFF windows carry
    ``base_rate_per_s`` (0 for pure silence).  Mean offered rate is
    ``duty * burst + (1 - duty) * base``.

    Raises:
        ValueError: for non-positive burst rate/duration/period or a
            duty cycle outside (0, 1].
    """
    if burst_rate_per_s <= 0 or duration_s <= 0 or period_s <= 0:
        raise ValueError("burst rate, duration, and period must be positive")
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    if base_rate_per_s < 0:
        raise ValueError("base_rate_per_s must be >= 0")
    burst = poisson_arrivals(burst_rate_per_s, duration_s, seed=seed)
    phase = np.mod(burst, period_s)
    times = burst[phase < duty * period_s]
    if base_rate_per_s > 0 and duty < 1.0:
        base = poisson_arrivals(base_rate_per_s, duration_s, seed=seed + 1)
        phase = np.mod(base, period_s)
        times = np.concatenate([times, base[phase >= duty * period_s]])
        times.sort()
    return times


@dataclass(frozen=True)
class OpenLoopReport:
    """What one open-loop run offered, admitted, and measured."""

    label: str
    offered: int  # arrivals in the trace
    admitted: int
    rejected: int  # backpressure refusals (with retry-after), not drops
    completed: int
    dropped: int  # admitted-but-unresolved; an invariant violation if > 0
    duration_s: float  # first submit → last result (wall clock)
    sustained_per_sec: float  # completed / duration
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    queue_wait_p50_ms: float
    queue_wait_p99_ms: float
    mean_batch: float
    flushes: int
    #: Per-request results in arrival order (admitted requests only),
    #: ``None`` unless ``collect_results`` was set.
    results: "tuple | None" = None

    def as_dict(self) -> dict:
        """JSON-able summary (results elided)."""
        return {
            "label": self.label,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "dropped": self.dropped,
            "duration_s": self.duration_s,
            "sustained_per_sec": self.sustained_per_sec,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "queue_wait_p50_ms": self.queue_wait_p50_ms,
            "queue_wait_p99_ms": self.queue_wait_p99_ms,
            "mean_batch": self.mean_batch,
            "flushes": self.flushes,
        }


async def run_open_loop(
    server: AdmissionWindow,
    arrivals: np.ndarray,
    workloads: Sequence[Workload],
    *,
    tenants: Sequence[str] = ("tenant-0",),
    collect_results: bool = False,
    label: str = "open-loop",
) -> OpenLoopReport:
    """Drive one server with an arrival trace over a workload pool.

    Request *i* submits workload ``workloads[i % len(workloads)]`` under
    tenant ``tenants[i % len(tenants)]`` at its scheduled arrival time
    (catch-up submission back-dates admission to the schedule, so sleep
    granularity cannot hide queueing delay).  Rejected requests are
    counted and *not* retried — open-loop semantics: the client moved on.

    Raises:
        ValueError: for an empty workload pool or tenant list.
    """
    if not workloads:
        raise ValueError("workload pool is empty")
    if not tenants:
        raise ValueError("tenant list is empty")
    server.start()
    # A completing thread (the shard router's collector) runs callbacks
    # before it counts them, so a warm-up request the caller already saw
    # resolve may not be counted yet: settle it outside the window.
    await server.drain()
    stats = server.stats
    base_completed = stats.completed
    base_dropped = stats.dropped
    base_flushes = stats.flushes
    first_sample = len(stats.latencies_ms)

    times = [float(t) for t in arrivals]
    n = len(times)
    pool = list(workloads)
    tenant_list = list(tenants)
    n_pool, n_tenants = len(pool), len(tenant_list)
    results: list | None = [None] * n if collect_results else None
    admitted_tags: list[int] = []

    if collect_results:
        def deliver(tag, result, _results=results):
            _results[tag] = result
    else:
        deliver = None

    clock = server.clock
    try_submit = server.try_submit
    start = clock()
    admitted = 0
    rejected = 0
    i = 0
    while i < n:
        now = clock() - start
        while i < n and times[i] <= now:
            ok = try_submit(
                pool[i % n_pool],
                tenant=tenant_list[i % n_tenants],
                tag=i,
                callback=deliver,
                arrival_s=start + times[i],
            )
            if ok:
                admitted += 1
                if collect_results:
                    admitted_tags.append(i)
            else:
                rejected += 1
            i += 1
        if i < n:
            await asyncio.sleep(min(times[i] - now, 0.005))
    await server.drain()
    duration = clock() - start

    completed = stats.completed - base_completed
    flushes = stats.flushes - base_flushes
    run_batches = stats.batch_sizes[base_flushes:]
    latencies = np.asarray(stats.latencies_ms[first_sample:], dtype=np.float64)
    waits = np.asarray(stats.queue_waits_ms[first_sample:], dtype=np.float64)
    collected = (
        tuple(results[tag] for tag in admitted_tags) if collect_results else None
    )
    return OpenLoopReport(
        label=label,
        offered=n,
        admitted=admitted,
        rejected=rejected,
        completed=completed,
        dropped=stats.dropped - base_dropped,
        duration_s=duration,
        sustained_per_sec=completed / duration if duration > 0 else 0.0,
        latency_p50_ms=float(np.percentile(latencies, 50)) if latencies.size else 0.0,
        latency_p99_ms=float(np.percentile(latencies, 99)) if latencies.size else 0.0,
        latency_mean_ms=float(latencies.mean()) if latencies.size else 0.0,
        queue_wait_p50_ms=float(np.percentile(waits, 50)) if waits.size else 0.0,
        queue_wait_p99_ms=float(np.percentile(waits, 99)) if waits.size else 0.0,
        mean_batch=sum(run_batches) / len(run_batches) if run_batches else 0.0,
        flushes=flushes,
        results=collected,
    )

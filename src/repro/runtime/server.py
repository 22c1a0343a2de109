"""Async serving front end: dynamic batching, backpressure, fairness.

``plan_batch`` made the *batch* path fast; this module gives that
throughput an ingestion story.  :class:`AdmissionWindow` is the one
batching window both serving front ends run on:

* **dynamic batching window** — incoming workloads accumulate in
  per-tenant queues and are flushed as one batch when the window fills
  (``max_batch``) or the oldest queued request hits the flush deadline,
  whichever comes first;
* **backpressure** — admission is bounded by ``queue_capacity``; once
  full, requests are *rejected with a retry-after hint* (derived from the
  measured service rate) instead of queueing without bound.  Admitted
  requests are never dropped: every one resolves by flush or by
  :meth:`AdmissionWindow.drain`;
* **per-tenant fairness** — flush assembly round-robins one request per
  tenant per turn, so a bursty client saturates its own queue without
  starving the others;
* **observability** — p50/p99 decision-latency and queue-wait samples,
  batch occupancy, and admit/reject counters accumulate in
  :class:`ServerStats`.

A front end supplies only the flush *sink*.  :class:`DecisionServer`,
over one :class:`~repro.runtime.engine.decision.DecisionService`,
decides each batch through **one** cache-deduped ``predict_batch``
forward and completes it inline (when ``REPRO_OBS`` is on it also
streams ``server.*`` histograms and counters into :mod:`repro.obs`);
:class:`~repro.runtime.shard.ShardRouter` ships it to worker processes.

Two request paths share the same flush machinery:

* :meth:`AdmissionWindow.submit` — the awaitable path: returns the
  request's result (a ``(spec, config)`` plan, a costed ``Decision``, or
  an executed ``RunOutcome`` depending on ``ServerConfig.mode``);
* :meth:`AdmissionWindow.try_submit` — the open-loop fast path used by
  the load generator: no future allocation, an optional ``callback(tag,
  result)`` for result delivery, ``False`` when admission is refused.

Decisions are bit-identical to the synchronous ``plan_batch`` path by
construction — a plan-mode flush *is* ``plan_batch``, exploration probes
included; only the batching schedule differs.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.runtime.deploy import Workload
from repro.runtime.engine.decision import DecisionService
from repro.runtime.engine.engine import Engine
from repro.runtime.engine.execution import ExecutionBackend
from repro.runtime.engine.scheduler import Scheduler

__all__ = [
    "AdmissionWindow",
    "DecisionServer",
    "ServerConfig",
    "ServerOverloadedError",
    "ServerStats",
    "WindowConfig",
    "low_latency_gc",
]


@contextlib.contextmanager
def low_latency_gc() -> Iterator[None]:
    """Suspend cyclic GC for the duration of a serving run.

    The serving hot path allocates hundreds of thousands of short-lived,
    acyclic objects per second; the cyclic collector's periodic gen-2
    walks show up directly in the decision-latency tail (measured ~6×
    on p99 under a 120k/s Poisson trace).  Refcounting still reclaims
    everything the server allocates, so the only cost is deferring
    collection of whatever cycles the rest of the process creates until
    the exit collect.  Pre-existing objects are frozen out of the way on
    entry (CPython's ``gc.freeze``), matching how long-running Python
    servers are deployed in practice.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()
        gc.collect()

#: Flush triggers, in the order the stats report them.
FLUSH_REASONS = ("size", "deadline", "drain")

#: Poll interval while a drain waits on work another thread completes.
_IDLE_POLL_S = 0.0005


class ServerOverloadedError(RuntimeError):
    """Admission queue full: come back after ``retry_after_s`` seconds."""

    def __init__(self, retry_after_s: float, pending: int) -> None:
        super().__init__(
            f"admission queue full ({pending} pending); "
            f"retry after {retry_after_s:.4f}s"
        )
        self.retry_after_s = retry_after_s
        self.pending = pending


@dataclass(frozen=True)
class WindowConfig:
    """The batching-window knobs every :class:`AdmissionWindow` shares.

    None sizes a feature-row memo: each workload keeps its own encoded row.
    """

    #: Flush as soon as this many requests are queued.
    max_batch: int = 256
    #: ... or when the oldest queued request has waited this long.
    flush_deadline_ms: float = 2.0
    #: Total pending requests (all tenants, queued or in flight) before
    #: admission rejects.  Bounds how large an arrival burst the window
    #: absorbs between event loop turns; beyond it, requests are refused
    #: with a retry-after hint.
    queue_capacity: int = 8192

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.flush_deadline_ms <= 0:
            raise ValueError(
                f"flush_deadline_ms must be > 0, got {self.flush_deadline_ms}"
            )
        if self.queue_capacity < self.max_batch:
            raise ValueError(
                "queue_capacity must be >= max_batch, got "
                f"{self.queue_capacity} < {self.max_batch}"
            )


@dataclass(frozen=True)
class ServerConfig(WindowConfig):
    """Tuning knobs for one :class:`DecisionServer`."""

    #: What a request resolves to: ``"plan"`` → (spec, config), ``"decide"``
    #: → fleet-costed :class:`Decision`, ``"run"`` → the
    #: :class:`RunOutcome` of the engine's ``solo`` run of the flush
    #: (executed and audited).
    mode: str = "plan"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("plan", "decide", "run"):
            raise ValueError(f"unknown server mode {self.mode!r}")


@dataclass
class ServerStats:
    """Monotonic counters plus raw latency samples for one server."""

    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    #: Admitted requests that will never resolve.  Stays 0 unless the
    #: server is stopped with ``flush=False`` or a flush sink raises —
    #: rejection is the only load-shedding mechanism, never silent drops.
    dropped: int = 0
    flushes: int = 0
    flush_reasons: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in FLUSH_REASONS}
    )
    #: Per-request decision latency (admission → result), milliseconds.
    latencies_ms: list[float] = field(default_factory=list)
    #: Per-request queue wait (admission → flush start), milliseconds.
    queue_waits_ms: list[float] = field(default_factory=list)
    #: Requests per flush (batch occupancy).
    batch_sizes: list[int] = field(default_factory=list)
    #: Per-tenant decision-latency samples (ms) — the raw series the
    #: serve artifact's per-tenant p99 lines are derived from.
    tenant_latencies_ms: dict[str, list[float]] = field(default_factory=dict)

    @property
    def mean_batch(self) -> float:
        """Mean flush occupancy (0.0 before the first flush)."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)


class _Request:
    """One admitted request (slotted: this is allocated per arrival)."""

    __slots__ = ("tag", "workload", "arrival_s", "callback", "tenant", "trace")

    def __init__(self, tag, workload, arrival_s, callback, tenant, trace) -> None:
        self.tag = tag
        self.workload = workload
        self.arrival_s = arrival_s
        self.callback = callback
        self.tenant = tenant
        self.trace = trace  # TraceContext | None (None when obs is off)


class _Waiter:
    """An awaiting :meth:`AdmissionWindow.submit`'s callback (slotted:
    allocated per awaited request).

    The completing thread need not be the loop's (the shard router's
    collector), so the result — or the flush's error, through
    :meth:`fail` — crosses over to the loop safely.
    """

    __slots__ = ("future",)

    def __init__(self, future) -> None:
        self.future = future

    def __call__(self, _tag, result) -> None:
        self._post(self.future.set_result, result)

    def fail(self, error: BaseException) -> None:
        self._post(self.future.set_exception, error)

    def _post(self, settle: Callable, value) -> None:
        self.future.get_loop().call_soon_threadsafe(self._settle, settle, value)

    def _settle(self, settle: Callable, value) -> None:
        if not self.future.done():
            settle(value)


class AdmissionWindow:
    """The batching window under both serving front ends.

    Owns admission (the bounded per-tenant queue and its retry-after
    hint), the size and deadline flush triggers, and completion
    accounting plus callback delivery.  A sink reads each request's
    feature row from its workload (:attr:`Workload.feature_row
    <repro.runtime.deploy.Workload.feature_row>`), which encodes a
    workload object once, however often it is submitted.
    A subclass supplies the flush sink, :meth:`_sink`, which takes one
    assembled batch and must hand every request of it to
    :meth:`_complete` — inline (:class:`DecisionServer`) or later from
    another thread (the shard router's collector).

    Counters are single-writer, so no lock guards the hot path: the
    admission thread writes ``admitted``, ``rejected``, ``dropped`` and
    the flush counts; only the completing thread writes ``completed``,
    the latency samples and the service rate.  :attr:`pending` is their
    difference.
    """

    def __init__(self, config: WindowConfig, clock: Callable[[], float]) -> None:
        self.config = config
        self.clock = clock
        self.stats = ServerStats()
        self._queues: dict[str, deque[_Request]] = {}
        self._rr: deque[str] = deque()  # tenant round-robin rotation
        self._queued = 0  # admitted, not yet handed to the sink
        self._loop = None  # captured on start()
        self._timer = None  # armed deadline flush, if any
        self._size_flush_scheduled = False  # call_soon size flush armed
        #: EWMA of completion rate (requests/sec) for retry-after hints.
        self._service_rate = 0.0
        #: Set when the sink can no longer complete what was admitted
        #: (a dead shard worker); every entry point then raises it.
        self._failure: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AdmissionWindow":
        """Bind to the running event loop (idempotent).

        Must be called from within a running loop before requests are
        submitted; ``async with window`` does it for you.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        if self._loop is not None and self._loop is not loop:
            raise RuntimeError("server already bound to a different loop")
        self._loop = loop
        return self

    async def __aenter__(self) -> "AdmissionWindow":
        return self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def stop(self, *, flush: bool = True) -> None:
        """Cancel the deadline timer; flush (default) or drop the queue."""
        self._cancel_timer()
        if flush:
            await self.drain()
        else:
            for queue in self._queues.values():
                self.stats.dropped += len(queue)
                queue.clear()
            self._queued = 0

    async def drain(self) -> None:
        """Flush until every admitted request has resolved (yields
        between flushes, and polls while the sink finishes in-flight
        batches on another thread)."""
        import asyncio

        while self.pending:
            self._raise_failure()
            if self._queued:
                self._flush("drain")
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(_IDLE_POLL_S)
        self._raise_failure()

    def wait_idle(self, *, timeout_s: float = 60.0) -> None:
        """Synchronous :meth:`drain` for loop-less callers (benches).

        Raises:
            TimeoutError: when in-flight work outlives ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while self.pending:
            self._raise_failure()
            if self._queued:
                self._flush("drain")
            elif time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{self.pending} requests still pending after "
                    f"{timeout_s:.0f}s"
                )
            else:
                time.sleep(_IDLE_POLL_S)
        self._raise_failure()

    def flush_now(self) -> int:
        """Force one flush (tests / closed-loop probes); returns its size."""
        if not self._queued:
            return 0
        return self._flush("drain")

    def _raise_failure(self) -> None:
        if self._failure is not None:
            raise self._failure

    # -- admission ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet resolved (queued or in flight)."""
        stats = self.stats
        return stats.admitted - stats.completed - stats.dropped

    def retry_after_s(self) -> float:
        """Backpressure hint: time for the backlog to drain at the
        measured service rate (one deadline window before any flush has
        calibrated the rate)."""
        if self._service_rate <= 0.0:
            return self.config.flush_deadline_ms / 1e3
        return max(
            self.config.flush_deadline_ms / 1e3,
            self.pending / self._service_rate,
        )

    def try_submit(
        self,
        workload: Workload,
        *,
        tenant: str = "default",
        tag=None,
        callback: Callable | None = None,
        arrival_s: float | None = None,
    ) -> bool:
        """Admit one request without allocating a future (the fast path).

        Args:
            workload: a prepared workload.
            tenant: fairness bucket the request queues under.
            tag: opaque token handed back to ``callback``.
            callback: called once as ``callback(tag, result)`` when the
                request completes (on the completing thread).
            arrival_s: override the admission timestamp (window clock
                domain) — open-loop drivers pass the *scheduled* arrival
                so catch-up submission can't hide queueing delay.

        Returns:
            True when admitted; False when rejected by backpressure
            (the caller should retry after :meth:`retry_after_s`).

        Raises:
            Exception: the sink's recorded failure (a dead shard worker
                raises ``ShardWorkerError``).
        """
        if self._failure is not None:
            raise self._failure
        stats = self.stats
        # ``pending``, inlined: this runs once per arrival.
        if stats.admitted - stats.completed - stats.dropped >= (
            self.config.queue_capacity
        ):
            stats.rejected += 1
            if obs.enabled():
                obs.counter("server.rejected")
            return False
        stats.admitted += 1
        request = _Request(
            tag,
            workload,
            self.clock() if arrival_s is None else arrival_s,
            callback,
            tenant,
            obs.mint_trace() if obs.enabled() else None,
        )
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rr.append(tenant)
        queue.append(request)
        self._queued += 1
        if self._queued >= self.config.max_batch:
            # Bound to a loop, the size flush is *deferred* to the next
            # loop turn instead of running inline: a catch-up burst can
            # then keep admitting until ``queue_capacity`` — which is what
            # makes the bounded queue (and rejection) real — and the
            # backlog drains in max_batch chunks once the burst yields.
            # Without a loop (synchronous callers) the flush runs inline.
            if self._loop is None:
                self._flush("size")
            elif not self._size_flush_scheduled:
                self._size_flush_scheduled = True
                self._loop.call_soon(self._on_size_flush)
        elif self._timer is None:
            self._arm_timer()
        return True

    async def submit(self, workload: Workload, *, tenant: str = "default"):
        """Admit one request and await its result.

        Raises:
            ServerOverloadedError: when backpressure rejects the request;
                carries the ``retry_after_s`` hint.
            Exception: whatever the sink raised for this request's batch.
        """
        if self._loop is None:
            self.start()
        future = self._loop.create_future()
        if not self.try_submit(workload, tenant=tenant, callback=_Waiter(future)):
            raise ServerOverloadedError(self.retry_after_s(), self.pending)
        return await future

    # -- batching window ---------------------------------------------------

    def _arm_timer(self) -> None:
        if self._loop is None:
            return  # unbound (pure synchronous use): flush on size/drain
        self._timer = self._loop.call_later(
            self.config.flush_deadline_ms / 1e3, self._on_deadline
        )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_deadline(self) -> None:
        self._timer = None
        if self._queued:
            self._flush("deadline")

    def _on_size_flush(self) -> None:
        self._size_flush_scheduled = False
        while self._queued >= self.config.max_batch:
            self._flush("size")

    def _assemble(self) -> list[_Request]:
        """Take up to ``max_batch`` queued requests, fairly.

        Single active tenant drains FIFO (the fast path); multiple
        tenants alternate one request per tenant per turn, so each of
        ``k`` backlogged tenants gets ~``max_batch / k`` of every flush
        no matter how deep one tenant's queue is.
        """
        count = min(self._queued, self.config.max_batch)
        batch: list[_Request] = []
        rotation = self._rr
        if len(rotation) == 1:
            queue = self._queues[rotation[0]]
            for _ in range(count):
                batch.append(queue.popleft())
        else:
            while len(batch) < count:
                tenant = rotation[0]
                rotation.rotate(-1)
                queue = self._queues[tenant]
                if queue:
                    batch.append(queue.popleft())
        self._queued -= len(batch)
        return batch

    def _flush(self, reason: str) -> int:
        """Hand one assembled batch to the sink; returns its size."""
        self._cancel_timer()
        batch = self._assemble()
        if not batch:
            return 0
        stats = self.stats
        stats.flushes += 1
        stats.flush_reasons[reason] += 1
        stats.batch_sizes.append(len(batch))
        try:
            self._sink(batch, reason, self.clock())
        except BaseException as error:
            # These requests will never resolve: account them, fail their
            # awaiting ``submit`` calls (a flush in a loop callback cannot
            # raise to them), then raise.
            stats.dropped += len(batch)
            for request in batch:
                if isinstance(request.callback, _Waiter):
                    request.callback.fail(error)
            raise
        finally:
            # The deadline clock restarts for whatever is still queued,
            # after a failed flush too.
            if self._queued and self._timer is None:
                self._arm_timer()
        return len(batch)

    def _sink(self, batch: list[_Request], reason: str, flush_start: float) -> None:
        """Serve one assembled batch; every request must reach
        :meth:`_complete`."""
        raise NotImplementedError

    def _complete(
        self, batch: list[_Request], results: list, flush_start: float, done: float
    ) -> None:
        """Account one finished batch and deliver its results in order.

        Runs on the completing thread, the only writer of ``completed``,
        the latency samples and the service rate.
        """
        stats = self.stats
        waits = stats.queue_waits_ms
        lats = stats.latencies_ms
        tenant_lats = stats.tenant_latencies_ms
        for request in batch:
            waits.append((flush_start - request.arrival_s) * 1e3)
            latency = (done - request.arrival_s) * 1e3
            lats.append(latency)
            per_tenant = tenant_lats.get(request.tenant)
            if per_tenant is None:
                per_tenant = tenant_lats[request.tenant] = []
            per_tenant.append(latency)
        elapsed = done - flush_start
        if elapsed > 0:
            rate = len(batch) / elapsed
            self._service_rate = (
                rate
                if self._service_rate <= 0.0
                else 0.8 * self._service_rate + 0.2 * rate
            )
        for request, result in zip(batch, results):
            if request.callback is not None:
                request.callback(request.tag, result)
        # Last, so a waiter that sees ``pending`` reach 0 knows every
        # callback has run.
        stats.completed += len(batch)


class DecisionServer(AdmissionWindow):
    """Dynamic-batching asyncio front end over one decision service.

    Its sink decides each assembled batch in-process — in ``plan``,
    ``decide`` or ``run`` mode — and completes it inline.  A ``run``
    flush is one ``solo`` :meth:`Engine.run_fleet
    <repro.runtime.engine.engine.Engine.run_fleet>` through ``backend``.
    """

    config: ServerConfig

    def __init__(
        self,
        decisions: DecisionService,
        config: ServerConfig | None = None,
        *,
        backend: ExecutionBackend | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(config or ServerConfig(), clock)
        self.decisions = decisions
        #: Runs ``"run"`` flushes: solo placement, execution and audit.
        self.engine = Engine(decisions, Scheduler(decisions.fleet), backend)

    def _sink(self, batch: list[_Request], reason: str, flush_start: float) -> None:
        """Decide one assembled batch synchronously and complete it."""
        # Row-aligned request scope: every span below (flush, decide,
        # predict, place, execute) carries the batch's trace ids, and the
        # decision layer can attribute cache hits per row.
        scope = (
            obs.trace_scope([r.trace for r in batch])
            if obs.enabled()
            else contextlib.nullcontext()
        )
        with scope, obs.span(
            "server.flush",
            reason=reason,
            batch=len(batch),
            mode=self.config.mode,
        ):
            results = self._serve(batch)
        done = self.clock()
        self._complete(batch, results, flush_start, done)
        if obs.enabled():
            self._observe(batch, results, reason, flush_start, done)

    def _serve(self, batch: list[_Request]) -> list:
        """Decide one assembled batch according to the configured mode."""
        mode = self.config.mode
        workloads = [request.workload for request in batch]
        if mode == "plan":
            return self.decisions.plan_batch(workloads)
        if mode == "decide":
            return self.decisions.decide_batch(workloads)
        return list(self.engine.run_fleet(workloads, policy="solo").outcomes)

    @staticmethod
    def _shards(mode: str, results: list) -> list[str]:
        """Per-row routed device names (the serving "shard" label)."""
        if mode == "plan":
            return [spec.name for spec, _config in results]
        if mode == "decide":
            return [decision.spec.name for decision in results]
        return [outcome.chosen_accelerator for outcome in results]

    def _observe(
        self,
        batch: list[_Request],
        results: list,
        reason: str,
        flush_start: float,
        done: float,
    ) -> None:
        """Stream this flush into the obs registry (enabled path only)."""
        obs.counter("server.admitted", len(batch))
        obs.counter("server.flush", reason=reason)
        obs.histogram("server.batch_occupancy", len(batch))
        shards = self._shards(self.config.mode, results)
        routed: dict[tuple[str, str], int] = {}
        for request, shard in zip(batch, shards):
            wait = (flush_start - request.arrival_s) * 1e3
            latency = (done - request.arrival_s) * 1e3
            obs.histogram("server.queue_wait_ms", wait)
            obs.histogram("server.decision_latency_ms", latency)
            obs.histogram(
                "server.tenant_latency_ms", latency, tenant=request.tenant
            )
            key = (request.tenant, shard)
            routed[key] = routed.get(key, 0) + 1
            if request.trace is not None:
                obs.record_span(
                    "server.queue_wait",
                    start_s=request.arrival_s,
                    end_s=flush_start,
                    trace_id=request.trace.trace_id,
                    tenant=request.tenant,
                )
            obs.slo_observe("queue_wait_ms", wait)
            obs.slo_observe("decision_latency_ms", latency)
        for (tenant, shard), count in sorted(routed.items()):
            obs.counter("server.requests", count, tenant=tenant, shard=shard)
        obs.gauge("server.pending", self._queued)
        obs.gauge("server.service_rate_per_sec", self._service_rate)

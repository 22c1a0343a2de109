"""Shard router: batched admission over a fixed pool of worker processes.

:class:`ShardRouter` is the multi-process sibling of
:class:`~repro.runtime.server.DecisionServer`: both run on the same
:class:`~repro.runtime.server.AdmissionWindow`, so admission,
backpressure, tenant fairness, the size/deadline flushes and the whole
serving surface (``start`` / ``try_submit`` / ``submit`` / ``drain`` /
``wait_idle`` / ``stats`` / ``clock``) are shared, and ``run_open_loop``
drives either unchanged.  Only the flush sink differs:

* each flushed batch routes at flush time: a workload's feature-row
  bytes go to slot ``stable_hash(bytes) % N`` of the pool
  :meth:`ShardRouter.launch` starts, so equal workloads always hit the
  shard whose decision cache already holds their entry — repeat
  decisions stay shard-local by construction;
* the batch splits into one **flush block** per owning shard — the
  block's unique feature rows as one ``(u, 17)`` float64 matrix plus an
  ``int32`` inverse index — shipped over a multiprocessing queue.  IPC
  cost scales with flushes and unique keys, never with requests;
* one collector thread drains a shared reply queue and completes each
  block through the window's accounting, and folds worker exits into the
  cross-shard :class:`ShardReport`.

The pool is fixed for the router's life: ``RouterConfig.shards``
workers, slot ``i`` running ``shard-i``.  Any deterministic partition of
the rows keeps sharded decisions exact, because each decision is a
function of its discretized feature row alone.

Decisions are bit-identical to the unsharded ``plan_batch`` path:
workers train the same predictor from the same :class:`ShardSpec` seed,
and the block protocol moves feature rows and plans verbatim.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.machine.specs import AcceleratorSpec, get_accelerator
from repro.runtime.server import AdmissionWindow, WindowConfig, _Request
from repro.runtime.shard.worker import ShardSpec, shard_worker_main

__all__ = [
    "RouterConfig",
    "ShardReport",
    "ShardRouter",
    "ShardSnapshot",
    "ShardSpec",
    "ShardWorkerError",
    "stable_hash",
]


class ShardWorkerError(RuntimeError):
    """A shard worker died; carries the worker-side traceback."""

    def __init__(self, shard: str, details: str) -> None:
        super().__init__(f"shard worker {shard!r} failed:\n{details}")
        self.shard = shard
        self.details = details


#: Seconds to wait for a worker to train and signal ready.
READY_TIMEOUT_S = 120.0
#: multiprocessing start method; ``None`` uses the platform default (fork
#: on Linux — workers still rebuild state from the spec, so behavior is
#: start-method agnostic).
START_METHOD: str | None = None


def stable_hash(data: bytes) -> int:
    """A 64-bit hash from SHA-256: a key's slot never depends on the
    process's ``PYTHONHASHSEED``, as ``hash()`` would."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


@dataclass(frozen=True)
class RouterConfig(WindowConfig):
    """Tuning knobs for one :class:`ShardRouter`.

    The window knobs (``max_batch``, ``flush_deadline_ms``,
    ``queue_capacity``) are the server's; a flushed batch of
    ``max_batch`` splits into one block per owning shard, about
    ``max_batch / shards`` requests each.
    """

    #: Worker processes in the pool; a row goes to slot
    #: ``stable_hash(row bytes) % shards``.
    shards: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's final accounting inside a :class:`ShardReport`.

    The counters are the worker's own final report; a shard that died
    keeps only what the router counted for it (``completed``).
    """

    shard: str
    pid: int = 0
    completed: int = 0
    flushes: int = 0
    unique_rows: int = 0
    mean_batch: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    device_counts: dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Decision-cache hit ratio (0.0 before any lookup)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass(frozen=True)
class ShardReport:
    """The cross-shard rollup: every shard's snapshot plus the totals."""

    shards: tuple[ShardSnapshot, ...]
    completed: int
    flushes: int
    unique_rows: int
    cache_hits: int
    cache_misses: int
    device_counts: dict[str, int]

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def lines(self) -> list[str]:
        """Human-readable rollup, one line per shard plus a total."""
        out = []
        for snap in self.shards:
            out.append(
                f"{snap.shard}: completed={snap.completed} "
                f"flushes={snap.flushes} mean_batch={snap.mean_batch:.1f} "
                f"cache_hit_rate={snap.cache_hit_rate:.3f} "
                f"devices={snap.device_counts}"
            )
        out.append(
            f"total: completed={self.completed} flushes={self.flushes} "
            f"unique_rows={self.unique_rows} "
            f"cache_hit_rate={self.cache_hit_rate:.3f} "
            f"devices={self.device_counts}"
        )
        return out


class _ShardHandle:
    """Router-side state for one worker process."""

    __slots__ = (
        "name",
        "process",
        "request_queue",
        "completed",
        "ready_event",
        "stopped_event",
        "final_stats",
    )

    def __init__(self, name, process, request_queue):
        self.name = name
        self.process = process
        self.request_queue = request_queue
        self.completed = 0  # requests answered (written by the collector)
        self.ready_event = threading.Event()
        self.stopped_event = threading.Event()
        self.final_stats: dict | None = None


def _shard_obs_env(name: str) -> str | None:
    """This shard's ``REPRO_OBS`` value: jsonl streams fork per shard.

    ``jsonl:runs/obs.jsonl`` becomes ``jsonl:runs/obs-<shard>.jsonl`` so
    N workers never interleave writes into one file; every other setting
    (off / in-memory) passes through unchanged.
    """
    raw = os.environ.get(obs.ENV_VAR)
    if not raw:
        return None
    mode, _, path = raw.partition(":")
    if mode != "jsonl":
        return raw
    stem, suffix = os.path.splitext(path or obs.DEFAULT_JSONL_PATH)
    return f"jsonl:{stem}-{name}{suffix or '.jsonl'}"


class ShardRouter(AdmissionWindow):
    """Admission layer over a fixed pool of shard worker processes.

    The serving surface is the :class:`~repro.runtime.server.AdmissionWindow`
    the single-process server runs on, so the open-loop load generator
    and the serve CLI drive both interchangeably.  Results are always
    *plans* — ``(AcceleratorSpec, MachineConfig)`` — the same thing the
    server's ``"plan"`` mode resolves to; callbacks fire on the collector
    thread.
    """

    config: RouterConfig

    def __init__(
        self,
        spec: ShardSpec,
        config: RouterConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(config or RouterConfig(), clock)
        self.spec = spec
        #: Slot ``i`` of the pool runs worker ``shard-i``.
        self._pool: tuple[_ShardHandle, ...] = ()
        self._next_block = 0
        # block_id -> (handle, batch, flush_start); distinct-key dict ops
        # from two threads are safe under the GIL.
        self._blocks: dict[int, tuple[_ShardHandle, list[_Request], float]] = {}
        self._spec_memo: dict[str, AcceleratorSpec] = {}
        self._mp = multiprocessing.get_context(START_METHOD)
        self._reply_queue = self._mp.Queue()
        self._collector: threading.Thread | None = None
        self._launched = False
        self._closed = False
        self._report: ShardReport | None = None

    # -- lifecycle ---------------------------------------------------------

    def launch(self) -> "ShardRouter":
        """Spawn the pool and wait for every ready signal.

        Workers train their predictors before signalling ready, so this
        blocks for N trainings' worth of wall clock (they overlap when
        the host has cores to spare).  Ready replies wait in the reply
        queue until the collector starts.  Idempotent.
        """
        if self._launched:
            return self
        self._launched = True
        self._pool = tuple(self._spawn(slot) for slot in range(self.config.shards))
        self._collector = threading.Thread(
            target=self._collect, name="shard-router-collector", daemon=True
        )
        self._collector.start()
        self._await_ready()
        return self

    def start(self) -> "ShardRouter":
        """Bind to the running event loop (and launch if needed)."""
        self.launch()
        return super().start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()
        self.close()

    def _spawn(self, slot: int) -> _ShardHandle:
        name = f"shard-{slot}"
        request_queue = self._mp.Queue()
        process = self._mp.Process(
            target=shard_worker_main,
            args=(
                name,
                self.spec,
                request_queue,
                self._reply_queue,
                _shard_obs_env(name),
            ),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        return _ShardHandle(name, process, request_queue)

    def _await_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for handle in self._pool:
            remaining = deadline - time.monotonic()
            if not handle.ready_event.wait(max(0.0, remaining)):
                self._raise_failure()
                raise TimeoutError(
                    f"shard {handle.name!r} not ready within "
                    f"{READY_TIMEOUT_S:.0f}s"
                )
            self._raise_failure()

    def _stop_worker(self, handle: _ShardHandle, *, timeout_s: float) -> ShardSnapshot:
        handle.request_queue.put(("stop",))
        if not handle.stopped_event.wait(timeout_s):
            self._raise_failure()
            raise TimeoutError(f"shard {handle.name!r} did not stop")
        handle.process.join(timeout_s)
        handle.request_queue.close()
        return ShardSnapshot(shard=handle.name, **(handle.final_stats or {}))

    # -- flush sink --------------------------------------------------------

    def _sink(self, batch: list[_Request], reason: str, flush_start: float) -> None:
        """Ship the batch as one deduplicated block per owning shard.

        A block carries each *unique* feature row once plus an int32
        inverse map, so a hot pool of H workloads ships at most H rows
        per block no matter how many requests rode in.
        """
        pool = self._pool
        if not pool:
            raise RuntimeError("shard pool not launched: call launch() first")
        # slot -> (requests, unique rows, inverse); key -> (block, row)
        blocks: dict[int, tuple[list, list, list]] = {}
        seen: dict[bytes, tuple[tuple, int]] = {}
        for request in batch:
            row = request.workload.feature_row
            key = row.tobytes()
            placed = seen.get(key)
            if placed is None:
                block = blocks.setdefault(stable_hash(key) % len(pool), ([], [], []))
                placed = seen[key] = (block, len(block[1]))
                block[1].append(row)
            block, row_index = placed
            block[0].append(request)
            block[2].append(row_index)
        for slot, (requests, rows, inverse) in blocks.items():
            handle = pool[slot]
            block_id = self._next_block
            self._next_block += 1
            self._blocks[block_id] = (handle, requests, flush_start)
            handle.request_queue.put(
                ("block", block_id, np.vstack(rows), np.asarray(inverse, np.int32))
            )
            if obs.enabled():
                obs.counter("router.flush", reason=reason, shard=handle.name)
                obs.histogram("router.block_occupancy", len(requests))
                obs.histogram("router.block_unique_rows", len(rows))

    # -- collector ---------------------------------------------------------

    def _resolve_spec(self, name: str) -> AcceleratorSpec:
        spec = self._spec_memo.get(name)
        if spec is None:
            spec = self._spec_memo[name] = get_accelerator(name)
        return spec

    def _collect(self) -> None:
        """Reply-queue loop: complete each answered block."""
        handles = {handle.name: handle for handle in self._pool}
        while True:
            message = self._reply_queue.get()
            kind = message[0]
            if kind == "close":
                return
            if kind == "ready":
                _, name = message
                handles[name].ready_event.set()
            elif kind == "result":
                _, _name, block_id, plans, inverse = message
                handle, batch, flush_start = self._blocks.pop(block_id)
                done = self.clock()
                resolved = [
                    (self._resolve_spec(device), config)
                    for device, config in plans
                ]
                self._complete(
                    batch, [resolved[i] for i in inverse.tolist()], flush_start, done
                )
                handle.completed += len(batch)
            elif kind == "stopped":
                _, name, final = message
                handle = handles[name]
                handle.final_stats = final
                handle.stopped_event.set()
            elif kind == "error":
                _, name, details = message
                self._failure = ShardWorkerError(name, details)
                # Unblock anyone waiting on ready/stopped; they re-check
                # the failure and raise it with the worker traceback.
                for handle in self._pool:
                    handle.ready_event.set()
                    handle.stopped_event.set()

    # -- shutdown ----------------------------------------------------------

    def close(self, *, timeout_s: float = 30.0) -> ShardReport:
        """Stop every worker and return the cross-shard report.

        Queued requests are flushed and drained first (zero drops);
        call :meth:`drain` / :meth:`wait_idle` yourself if you need the
        drain to happen under an event loop.  Idempotent — a second
        close returns the same report.
        """
        if self._closed:
            return self._report
        self._closed = True
        self._cancel_timer()
        if self._failure is None and self._launched:
            try:
                self.wait_idle(timeout_s=timeout_s)
            except (TimeoutError, ShardWorkerError):
                pass  # report what we can; failure re-raises below
        snapshots: list[ShardSnapshot] = []
        for handle in self._pool:
            if self._failure is None:
                snapshot = self._stop_worker(handle, timeout_s=timeout_s)
            else:
                handle.process.terminate()
                handle.process.join(timeout_s)
                snapshot = ShardSnapshot(shard=handle.name, completed=handle.completed)
            snapshots.append(snapshot)
        self._reply_queue.put(("close",))
        if self._collector is not None:
            self._collector.join(timeout_s)
        self._reply_queue.close()
        device_counts: dict[str, int] = {}
        for snap in snapshots:
            for device, count in snap.device_counts.items():
                device_counts[device] = device_counts.get(device, 0) + count
        self._report = ShardReport(
            shards=tuple(snapshots),
            completed=sum(s.completed for s in snapshots),
            flushes=sum(s.flushes for s in snapshots),
            unique_rows=sum(s.unique_rows for s in snapshots),
            cache_hits=sum(s.cache_hits for s in snapshots),
            cache_misses=sum(s.cache_misses for s in snapshots),
            device_counts=device_counts,
        )
        self._raise_failure()
        return self._report

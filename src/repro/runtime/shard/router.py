"""Shard router: consistent-hash admission over N worker processes.

:class:`ShardRouter` is the multi-process sibling of
:class:`~repro.runtime.server.DecisionServer`: both run on the same
:class:`~repro.runtime.server.AdmissionWindow`, so admission,
backpressure, tenant fairness, the size/deadline flushes and the whole
serving surface (``start`` / ``try_submit`` / ``submit`` / ``drain`` /
``wait_idle`` / ``stats`` / ``clock``) are shared, and ``run_open_loop``
drives either unchanged.  Only the flush sink differs:

* each flushed batch routes at flush time by every workload's canonical
  feature-key bytes through a :class:`~repro.runtime.shard.ring.HashRing`,
  so equal workloads always hit the shard whose decision cache already
  holds their entry — repeat decisions stay shard-local by construction;
* the batch splits into one **flush block** per owning shard — the
  block's unique feature rows as one ``(u, 17)`` float64 matrix plus an
  ``int32`` inverse index — shipped over a multiprocessing queue.  IPC
  cost scales with flushes and unique keys, never with requests;
* one collector thread drains a shared reply queue and completes each
  block through the window's accounting, and folds worker exits into the
  cross-shard :class:`ShardReport`.

Membership is dynamic: :meth:`ShardRouter.add_shard` and
:meth:`ShardRouter.remove_shard` re-ring live traffic with the ring's
bounded-movement guarantee (~K/N keys remapped); a leaving shard answers
the blocks already shipped to it before it stops, and requests still
queued route to the new owner at their flush, so admitted requests never
drop.

Decisions are bit-identical to the unsharded ``plan_batch`` path:
workers train the same predictor from the same :class:`ShardSpec` seed,
and the block protocol moves feature rows and plans verbatim.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.machine.specs import AcceleratorSpec, get_accelerator
from repro.runtime.server import AdmissionWindow, WindowConfig, _Request
from repro.runtime.shard.ring import DEFAULT_VNODES, HashRing
from repro.runtime.shard.worker import ShardSpec, shard_worker_main

__all__ = [
    "RouterConfig",
    "ShardReport",
    "ShardRouter",
    "ShardSnapshot",
    "ShardSpec",
    "ShardWorkerError",
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


@dataclass(frozen=True)
class RouterConfig(WindowConfig):
    """Tuning knobs for one :class:`ShardRouter`.

    The window knobs (``max_batch``, ``flush_deadline_ms``,
    ``queue_capacity``, ``feature_memo_capacity``) are the server's; a
    flushed batch of ``max_batch`` splits into one block per owning
    shard, about ``max_batch / shards`` requests each.
    """

    #: Worker processes to launch (ring members at startup).
    shards: int = 2
    #: Virtual nodes per shard on the hash ring.
    vnodes: int = DEFAULT_VNODES

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's final accounting inside a :class:`ShardReport`.

    The counters are the worker's own final report; a shard that died
    keeps only what the router counted for it (``completed``).
    """

    shard: str
    active: bool
    pid: int = 0
    completed: int = 0
    flushes: int = 0
    unique_rows: int = 0
    mean_batch: float = 0.0
    max_batch: int = 0
    decide_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_entries: int = 0
    device_counts: dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Decision-cache hit ratio (0.0 before any lookup)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass(frozen=True)
class ShardReport:
    """The cross-shard rollup: every shard's snapshot plus the totals.

    ``shards`` includes retired members (``active=False``) so a
    join/leave run still accounts for every decision that was served.
    """

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
            state = "" if snap.active else " (retired)"
            out.append(
                f"{snap.shard}{state}: completed={snap.completed} "
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
        "ready_meta",
        "ready_event",
        "stopped_event",
        "final_stats",
    )

    def __init__(self, name, process, request_queue):
        self.name = name
        self.process = process
        self.request_queue = request_queue
        self.completed = 0  # requests answered (written by the collector)
        self.ready_meta: dict | None = None
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
    """Consistent-hash admission layer over N shard worker processes.

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
        self.ring = HashRing(vnodes=self.config.vnodes)
        self._handles: dict[str, _ShardHandle] = {}
        self._retired: list[ShardSnapshot] = []
        self._next_index = 0
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
        """Spawn the initial shard fleet and wait for every ready signal.

        Workers train their predictors before signalling ready, so this
        blocks for N trainings' worth of wall clock (they overlap when
        the host has cores to spare).  Idempotent.
        """
        if self._launched:
            return self
        self._launched = True
        self._collector = threading.Thread(
            target=self._collect, name="shard-router-collector", daemon=True
        )
        self._collector.start()
        handles = [self._spawn() for _ in range(self.config.shards)]
        self._await_ready(handles)
        for handle in handles:
            self.ring.add(handle.name)
        return self

    def start(self) -> "ShardRouter":
        """Bind to the running event loop (and launch if needed)."""
        self.launch()
        return super().start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()
        self.close()

    def _spawn(self) -> _ShardHandle:
        name = f"shard-{self._next_index}"
        self._next_index += 1
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
        handle = _ShardHandle(name, process, request_queue)
        self._handles[name] = handle
        process.start()
        return handle

    def _await_ready(self, handles: Sequence[_ShardHandle]) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for handle in handles:
            remaining = deadline - time.monotonic()
            if not handle.ready_event.wait(max(0.0, remaining)):
                self._raise_failure()
                raise TimeoutError(
                    f"shard {handle.name!r} not ready within "
                    f"{READY_TIMEOUT_S:.0f}s"
                )
            self._raise_failure()

    # -- membership --------------------------------------------------------

    @property
    def shards(self) -> tuple[str, ...]:
        """Active shard names, sorted."""
        return self.ring.shards

    def add_shard(self) -> str:
        """Join one new shard: spawn, train, then take ring ownership.

        The new member only enters the ring after it signals ready, so
        no request ever routes to a shard that can't serve it.  Returns
        the new shard's name.
        """
        self._raise_failure()
        handle = self._spawn()
        self._await_ready([handle])
        self.ring.add(handle.name)
        return handle.name

    def remove_shard(self, name: str, *, timeout_s: float = 30.0) -> ShardSnapshot:
        """Retire one shard with zero request loss.

        The shard leaves the ring first, so requests still queued in the
        window route to their keys' new owners when they flush (same
        plans: decisions are a pure function of the feature row).  The
        blocks already shipped to it still resolve: the worker answers
        its request queue in order, so every block reply precedes its
        final ``stopped`` message.  The retired shard's final snapshot
        stays in the close-time report.

        Raises:
            KeyError: for an unknown or already-retired shard.
            ValueError: for the last ring member — an empty ring would
                strand the requests already admitted.
        """
        handle = self._handles.get(name)
        if handle is None:
            raise KeyError(f"unknown shard {name!r}")
        if len(self.ring) == 1:
            raise ValueError(f"cannot remove {name!r}: it is the last shard")
        self.ring.remove(name)
        snapshot = self._stop_worker(handle, timeout_s=timeout_s)
        self._retired.append(snapshot)
        del self._handles[name]
        return snapshot

    def _stop_worker(
        self, handle: _ShardHandle, *, timeout_s: float, active: bool = False
    ) -> ShardSnapshot:
        handle.request_queue.put(("stop",))
        if not handle.stopped_event.wait(timeout_s):
            self._raise_failure()
            raise TimeoutError(f"shard {handle.name!r} did not stop")
        handle.process.join(timeout_s)
        handle.request_queue.close()
        return ShardSnapshot(
            shard=handle.name, active=active, **(handle.final_stats or {})
        )

    # -- flush sink --------------------------------------------------------

    def _sink(self, batch: list[_Request], reason: str, flush_start: float) -> None:
        """Ship the batch as one deduplicated block per owning shard.

        A block carries each *unique* feature row once plus an int32
        inverse map, so a hot pool of H workloads ships at most H rows
        per block no matter how many requests rode in.
        """
        lookup = self.ring.lookup
        # shard -> (requests, unique rows, inverse); key -> (block, row)
        blocks: dict[str, tuple[list, list, list]] = {}
        slots: dict[bytes, tuple[tuple, int]] = {}
        for request, row in zip(batch, self._rows(batch)):
            key = row.tobytes()
            slot = slots.get(key)
            if slot is None:
                block = blocks.setdefault(lookup(key), ([], [], []))
                slot = slots[key] = (block, len(block[1]))
                block[1].append(row)
            block, row_index = slot
            block[0].append(request)
            block[2].append(row_index)
        for name, (requests, rows, inverse) in blocks.items():
            handle = self._handles[name]
            block_id = self._next_block
            self._next_block += 1
            self._blocks[block_id] = (handle, requests, flush_start)
            handle.request_queue.put(
                ("block", block_id, np.vstack(rows), np.asarray(inverse, np.int32))
            )
            if obs.enabled():
                obs.counter("router.flush", reason=reason, shard=name)
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
        while True:
            message = self._reply_queue.get()
            kind = message[0]
            if kind == "close":
                return
            if kind == "ready":
                _, name, meta = message
                handle = self._handles[name]
                handle.ready_meta = meta
                handle.ready_event.set()
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
                handle = self._handles.get(name)
                if handle is not None:
                    handle.final_stats = final
                    handle.stopped_event.set()
            elif kind == "error":
                _, name, details = message
                self._failure = ShardWorkerError(name, details)
                # Unblock anyone waiting on ready/stopped; they re-check
                # the failure and raise it with the worker traceback.
                for handle in self._handles.values():
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
        for handle in list(self._handles.values()):
            if self._failure is None:
                # Shards alive at close time report active=True; only
                # mid-run remove_shard() retirees report active=False.
                snapshot = self._stop_worker(
                    handle, timeout_s=timeout_s, active=True
                )
            else:
                handle.process.terminate()
                handle.process.join(timeout_s)
                snapshot = ShardSnapshot(
                    shard=handle.name, active=True, completed=handle.completed
                )
            snapshots.append(snapshot)
        self._handles.clear()
        self._reply_queue.put(("close",))
        if self._collector is not None:
            self._collector.join(timeout_s)
        self._reply_queue.close()
        device_counts: dict[str, int] = {}
        all_snaps = tuple(self._retired) + tuple(snapshots)
        for snap in all_snaps:
            for device, count in snap.device_counts.items():
                device_counts[device] = device_counts.get(device, 0) + count
        self._report = ShardReport(
            shards=all_snaps,
            completed=sum(s.completed for s in all_snaps),
            flushes=sum(s.flushes for s in all_snaps),
            unique_rows=sum(s.unique_rows for s in all_snaps),
            cache_hits=sum(s.cache_hits for s in all_snaps),
            cache_misses=sum(s.cache_misses for s in all_snaps),
            device_counts=device_counts,
        )
        self._raise_failure()
        return self._report

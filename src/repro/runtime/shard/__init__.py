"""Sharded decision serving: one admission window over a worker pool.

The single-process asyncio front end (:mod:`repro.runtime.server`)
saturates once every flush, forward, and placement contends for one GIL.
This package partitions that traffic across a fixed pool of N *shard
workers* — separate processes, each owning a full ``HeteroMap``
(predictor + fleet + fingerprint-keyed decision cache) — behind one
admission layer:

* :class:`~repro.runtime.shard.router.ShardRouter` — batched admission
  on the server's window: each flushed batch splits into per-shard flush
  blocks (deduped numpy feature rows + an inverse index) shipped over
  multiprocessing queues, never per-request IPC.  A feature row goes to
  slot ``stable_hash(row bytes) % N``, so equal workloads always land on
  the shard that already memoized their decision;
* :func:`~repro.runtime.shard.router.stable_hash` — SHA-256, so a key's
  slot is the same in every process whatever its ``PYTHONHASHSEED``;
* :class:`~repro.runtime.shard.router.ShardReport` — the cross-shard
  rollup: per-shard serving stats, cache hit ratios, and per-device plan
  counts, labeled by shard.

Decisions are bit-identical to the unsharded ``plan_batch`` path: every
worker trains the same predictor from the same seed, so sharding changes
*where* a decision is computed, never *what* it is.
"""

from repro.runtime.shard.router import (
    RouterConfig,
    ShardReport,
    ShardRouter,
    ShardSnapshot,
    ShardSpec,
    stable_hash,
)

__all__ = [
    "RouterConfig",
    "ShardReport",
    "ShardRouter",
    "ShardSnapshot",
    "ShardSpec",
    "stable_hash",
]

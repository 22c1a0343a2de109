"""Sharded decision serving: consistent-hash routing across fleets.

The single-process asyncio front end (:mod:`repro.runtime.server`)
saturates once every flush, forward, and placement contends for one GIL.
This package partitions that traffic across N *shard workers* — separate
processes, each owning a full ``HeteroMap`` (predictor + fleet +
fingerprint-keyed decision cache) — behind one admission layer:

* :class:`~repro.runtime.shard.ring.HashRing` — consistent hashing with
  virtual nodes over the workload's discretized feature key, so equal
  workloads always land on the shard that already memoized their
  decision, and shard join/leave remaps only ~K/N keys;
* :class:`~repro.runtime.shard.router.ShardRouter` — batched admission
  on the server's window: each flushed batch splits into per-shard flush
  blocks (deduped numpy feature rows + an inverse index) shipped over
  multiprocessing queues, never per-request IPC;
* :class:`~repro.runtime.shard.router.ShardReport` — the cross-shard
  rollup: per-shard serving stats, cache hit ratios, and per-device plan
  counts, labeled by shard.

Decisions are bit-identical to the unsharded ``plan_batch`` path: every
worker trains the same predictor from the same seed, so sharding changes
*where* a decision is computed, never *what* it is.
"""

from repro.runtime.shard.ring import HashRing, ring_key, stable_hash
from repro.runtime.shard.router import (
    RouterConfig,
    ShardReport,
    ShardRouter,
    ShardSnapshot,
    ShardSpec,
)

__all__ = [
    "HashRing",
    "RouterConfig",
    "ShardReport",
    "ShardRouter",
    "ShardSnapshot",
    "ShardSpec",
    "ring_key",
    "stable_hash",
]

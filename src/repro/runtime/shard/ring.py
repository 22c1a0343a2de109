"""Consistent-hash ring with virtual nodes over workload feature keys.

Placement must satisfy three properties the router leans on:

1. **determinism across processes** — the same key maps to the same
   shard in the admission process, in every worker, and in any future
   process that replays a trace.  Positions therefore come from SHA-256
   (:func:`stable_hash`), never from Python's seeded ``hash()``;
2. **balance** — each shard owns many small arcs of the ring
   (``vnodes`` virtual nodes per shard), so at realistic key counts no
   shard's share strays far from ``1/N``;
3. **bounded movement** — adding a shard steals only the arcs its new
   virtual nodes cover (~``K/(N+1)`` of the keys); removing one releases
   only its own arcs.  Every other key keeps its shard, which is what
   keeps the per-shard decision caches warm through membership changes.

Keys are canonicalized by :func:`ring_key`: a discretized feature row
(the 0.1-grid lattice of Section III) serializes to the same bytes for
equal workloads, so repeat decisions land on the shard that already
holds their cached entry.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

import numpy as np

__all__ = ["DEFAULT_VNODES", "HashRing", "ring_key", "stable_hash"]

#: Virtual nodes per shard.  128 arcs keep the max/min shard share
#: within ~1.5x at 10k keys while add/remove stays O(vnodes log ring).
DEFAULT_VNODES = 128


def stable_hash(data: bytes) -> int:
    """A 64-bit ring position from SHA-256 (process-seed independent)."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def ring_key(features: "np.ndarray | Iterable[float] | bytes") -> bytes:
    """Canonical key bytes for one discretized feature row.

    Equal workloads produce float-equal rows (the 0.1-grid dedupe
    property), so the raw float64 byte image is an exact identity.  The
    decision cache keys on the same bytes
    (:func:`~repro.runtime.serving.feature_keys_batch`, which also folds
    ``-0.0`` into ``0.0``; encoded rows never hold ``-0.0``, so a
    workload's ring key is its cache key's row bytes).  ``bytes`` pass
    through untouched (the router takes them once per request row at
    flush time).
    """
    if isinstance(features, bytes):
        return features
    if isinstance(features, np.ndarray):
        return np.ascontiguousarray(features, dtype=np.float64).tobytes()
    return np.asarray(tuple(features), dtype=np.float64).tobytes()


class HashRing:
    """Consistent-hash placement of keys onto named shards."""

    def __init__(
        self, shards: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        # Sorted (position, shard) pairs; ties (astronomically unlikely
        # with 64-bit positions) resolve by the tuple order, which is
        # still deterministic across processes.
        self._ring: list[tuple[int, str]] = []
        self._members: set[str] = set()
        for shard in shards:
            self.add(shard)

    # -- membership --------------------------------------------------------

    @property
    def shards(self) -> tuple[str, ...]:
        """Current members, sorted by name."""
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, shard: str) -> bool:
        return shard in self._members

    def _points(self, shard: str) -> list[int]:
        return [
            stable_hash(f"{shard}#vnode-{i}".encode())
            for i in range(self.vnodes)
        ]

    def add(self, shard: str) -> None:
        """Join a shard: it takes over the arcs its virtual nodes cover.

        Raises:
            ValueError: for an empty name or an existing member.
        """
        if not shard:
            raise ValueError("shard name must be non-empty")
        if shard in self._members:
            raise ValueError(f"shard {shard!r} is already on the ring")
        self._members.add(shard)
        for point in self._points(shard):
            bisect.insort(self._ring, (point, shard))

    def remove(self, shard: str) -> None:
        """Leave a shard: only its own arcs are released.

        Raises:
            KeyError: for a non-member.
        """
        if shard not in self._members:
            raise KeyError(f"shard {shard!r} is not on the ring")
        self._members.remove(shard)
        self._ring = [entry for entry in self._ring if entry[1] != shard]

    # -- placement ---------------------------------------------------------

    def lookup(self, key: "bytes | np.ndarray | Iterable[float]") -> str:
        """The shard owning ``key``: first virtual node at or after its
        ring position, wrapping at the top.

        Raises:
            LookupError: when the ring has no members.
        """
        if not self._ring:
            raise LookupError("hash ring is empty: no shards to place onto")
        position = stable_hash(ring_key(key))
        index = bisect.bisect_left(self._ring, (position, ""))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def distribution(
        self, keys: Iterable["bytes | np.ndarray | Iterable[float]"]
    ) -> dict[str, int]:
        """Keys per shard for a key sample (balance diagnostics)."""
        counts: dict[str, int] = {shard: 0 for shard in self._members}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts

"""Batched prediction serving: the exact LRU decision cache.

The online path traditionally handles one workload per call — every
request pays a full featurize/forward/decode round-trip.  Two structural
facts make a much cheaper serving path possible:

1. Every predictor is a NumPy model, so a batch of feature rows costs one
   matrix pass instead of ``n`` scalar passes
   (:meth:`repro.core.predictors.base.Predictor.predict_batch`).
2. The (B, I) feature space is *discretized* (Section III's 0.1-step
   lattice), so two workloads with equal feature rows are
   indistinguishable to the predictor — the full decision (accelerator,
   config, predicted M vector) can be memoized **exactly**.  A cache hit
   is bit-identical to a fresh prediction, not an approximation.

:class:`DecisionCache` is that memo: an LRU map from the feature row's
key (fleet fingerprint, predictor tag and the row's float64 bytes) to the
decoded deployment plus the raw predicted vector (kept for
decision-audit records on hits).  :meth:`HeteroMap.plan_batch` dedupes a
batch through it, runs one batched forward for the misses, and fans the
results back out.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.machine.mvars import MachineConfig
from repro.machine.specs import AcceleratorSpec

__all__ = [
    "CACHE_ENV_VAR",
    "CacheStats",
    "CachedDecision",
    "DecisionCache",
    "capacity_from_env",
    "feature_keys_batch",
]

#: Default number of distinct feature rows retained.  The discretized
#: lattice is finite but large; 4096 entries comfortably covers the
#: benchmark×dataset cross product many times over.
DEFAULT_CAPACITY = 4096

#: Environment override for the decision-cache capacity (0 disables).
CACHE_ENV_VAR = "REPRO_DECISION_CACHE"


def capacity_from_env(default: int = DEFAULT_CAPACITY) -> int:
    """Decision-cache capacity from ``REPRO_DECISION_CACHE``.

    Unset (or blank) falls back to ``default``; ``0`` means "disable the
    cache" and is returned as-is for the caller to interpret.

    Raises:
        ValueError: for a non-integer or negative value.
    """
    raw = os.environ.get(CACHE_ENV_VAR)
    if raw is None or not raw.strip():
        return default
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            f"{CACHE_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if capacity < 0:
        raise ValueError(f"{CACHE_ENV_VAR} must be >= 0, got {capacity}")
    return capacity


def feature_keys_batch(
    features: np.ndarray, *, fleet: str, predictor: str
) -> list[tuple[str, str, bytes]]:
    """Canonical cache keys for a whole ``(n, 17)`` feature matrix.

    Feature rows are already discretized, so equal workloads produce
    float-equal rows, and a row's float64 byte image is an exact key (no
    rounding or hashing tricks needed): the shard ring's
    :func:`~repro.runtime.shard.ring.ring_key` of the same row.  Adding
    ``0.0`` first turns ``-0.0`` into ``0.0``, the one pair of values
    that compare equal as floats with different bytes, so rows equal as
    floats share a key.  One void view of the matrix yields every row's
    bytes in a single C pass; ``bytes`` and ``str`` cache their hashes, so
    a lookup hashes no float.  This is the per-request key cost on the
    serving hot path.

    ``fleet`` namespaces each key with a fleet fingerprint
    (:attr:`repro.machine.fleet.Fleet.fingerprint`): decisions are only
    exact relative to the device set they were decoded for, so a cache
    shared across two differently configured fleets must never serve one
    fleet's placement to the other.

    ``predictor`` namespaces each key with a predictor identity tag
    (name plus generation, e.g. ``"cart#g2"``): a cached vector is only
    exact relative to the model that predicted it, so a cache consulted
    across two predictors — or across an online-adaptation promotion,
    which bumps the generation — must never serve one model's decision
    as the other's.
    """
    matrix = np.ascontiguousarray(features, dtype=np.float64) + 0.0
    # One void element per row ("V136" for 17 features) lists as its bytes.
    rows = matrix.view(f"V{matrix.itemsize * matrix.shape[1]}")
    return [(fleet, predictor, row) for row in rows.ravel().tolist()]


@dataclass(frozen=True)
class CachedDecision:
    """One memoized prediction: the decoded deployment + raw M vector.

    ``spec`` and ``config`` are the plan tier's deployment.  The decide
    tier also decodes ``vector`` onto every other fleet device and keeps
    those configs in :attr:`device_configs`, so a cache hit decides
    without decoding again.  The decision layer builds its entries
    without ``__init__``, from values it already holds in checked form
    (a read-only vector of its own); ``__post_init__`` is for any other
    caller.
    """

    spec: AcceleratorSpec
    config: MachineConfig
    vector: np.ndarray  # read-only copy of the predicted target vector
    #: Trace id of the request whose miss computed this entry (``None``
    #: outside a traced request).  Cache hits link back to it, so a
    #: served decision's provenance survives the memoization.
    origin_trace: str | None = field(default=None, compare=False)
    #: Calibrated per-row confidence at compute time (``None`` when the
    #: serving layer is not tracking confidence).  Confidence is a pure
    #: function of the feature row for a fixed predictor generation, so
    #: memoizing it alongside the vector is exact.
    confidence: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=np.float64, copy=True)
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)

    @cached_property
    def device_configs(self) -> dict[str, MachineConfig]:
        """``vector`` decoded onto each fleet device, by device name,
        filled as the decision layer decodes; it starts with ``config``
        on ``spec``.

        Names suffice: an entry is only served under its fleet's
        fingerprint, which fixes every field of each named device.  A
        cached attribute, not a field, so ``==``, ``repr`` and
        :func:`dataclasses.replace` see only the dataclass fields.
        """
        return {self.spec.name: self.config}


@dataclass
class CacheStats:
    """Monotonic hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of :meth:`DecisionCache.get` calls."""
        return self.hits + self.misses


class DecisionCache:
    """Exact LRU cache from feature keys (:func:`feature_keys_batch`) to
    decisions.

    Least-recently-*used* eviction: both hits and inserts refresh an
    entry's recency, so hot workloads survive sweeps of one-off requests.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple[str, str, bytes], CachedDecision] = (
            OrderedDict()
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, str, bytes]) -> bool:
        return key in self._entries

    def get(self, key: tuple[str, str, bytes]) -> CachedDecision | None:
        """Look up a decision, refreshing its recency on a hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: tuple[str, str, bytes], entry: CachedDecision) -> None:
        """Insert (or refresh) a decision, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries (statistics are kept — they are monotonic)."""
        self._entries.clear()

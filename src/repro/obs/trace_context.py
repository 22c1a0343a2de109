"""Request-scoped trace ids: one id stitches a request's spans.

A trace id (a string) is minted when a request enters the serving
stack (``DecisionServer.submit`` / ``try_submit``) and carried — via a
:mod:`contextvars` scope, not by threading it through every signature —
across flush assembly, the decision layer, the placement layer, and
backend execution.  Every span the facade creates while a scope is
active is automatically tagged with the active trace id(s), so one
``trace_id`` recovers the full queue-wait → flush → decide → place →
execute chain from the JSONL stream.

Two scope shapes cover the batching reality of the serving path:

* a **single** active trace (``trace_scope((trace_id,))``) tags spans
  with ``trace_id`` — per-request work such as one backend execution;
* a **batch** scope (one id per batch row, in row order) tags
  spans with the full ``trace_ids`` list — batch-level work such as a
  flush or a batched forward.  Row alignment is what lets the decision
  layer attribute per-row cache hits back to the request that originated
  the cached entry (a *trace link*).

Scopes nest and restore on exit; with observability disabled nothing
here is ever called from the hot paths (the facade checks first).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from contextvars import ContextVar
from typing import Iterator, Sequence

__all__ = [
    "active_trace_ids",
    "current_trace",
    "mint_trace",
    "trace_scope",
]

# Process-unique prefix + a monotone counter: ids are unique across the
# forked worker processes that share one JSONL stream, and cheap to mint
# (no uuid4 syscall per request on the serving hot path).
_COUNTER = itertools.count(1)
_PREFIX_LOCK = threading.Lock()
_PREFIX: str | None = None


def _prefix() -> str:
    global _PREFIX
    if _PREFIX is None:
        with _PREFIX_LOCK:
            if _PREFIX is None:
                _PREFIX = f"{os.getpid():05x}{os.urandom(3).hex()}"
    return _PREFIX


def mint_trace() -> str:
    """A fresh process-unique trace id for one request."""
    return f"{_prefix()}-{next(_COUNTER):x}"


_ACTIVE: ContextVar[tuple[str, ...]] = ContextVar("repro_obs_traces", default=())


def active_trace_ids() -> tuple[str, ...]:
    """The innermost active scope's trace ids, batch-row order (``()``
    outside any scope)."""
    return _ACTIVE.get()


def current_trace() -> str | None:
    """The single active trace id, or ``None`` outside/inside a batch
    scope."""
    active = _ACTIVE.get()
    return active[0] if len(active) == 1 else None


@contextlib.contextmanager
def trace_scope(trace_ids: Sequence[str | None]) -> Iterator[tuple[str, ...]]:
    """Activate a batch of trace ids for the duration of the block.

    ``None`` entries (requests admitted while observability was off, or
    rows with no request identity) are preserved positionally for id
    lookup by the caller but dropped from the active tuple.  An
    all-``None`` batch activates nothing — spans inside stay untagged.
    """
    resolved = tuple(trace_id for trace_id in trace_ids if trace_id is not None)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)

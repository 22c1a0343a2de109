"""Nested wall-clock span tracing.

``Tracer.span("tuning.sweep", accelerator="gtx750ti")`` returns a context
manager; on exit a :class:`SpanRecord` is appended to the tracer, which
keeps only the newest :data:`MAX_KEPT_RECORDS`, and emitted to the JSONL
sink when one is attached, which gets every record.  Nesting is tracked
per thread, so records carry a depth and a parent index and a run's span
tree can be reconstructed offline.

The clock is injected (default :func:`time.perf_counter`): tests drive a
fake clock to make span timings — and therefore the exported records —
fully deterministic.

The disabled path never reaches this module: the :mod:`repro.obs` facade
hands out a shared :data:`NOOP_SPAN` singleton instead, so tracing off
means zero allocations per instrumented call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["MAX_KEPT_RECORDS", "SpanRecord", "Span", "NOOP_SPAN", "Tracer"]

#: Newest records a tracer (and the obs state's decision buffer) keeps
#: in memory; older ones drop, so a long-running traced server holds a
#: bounded tail.  The JSONL sink is where the whole run goes.
MAX_KEPT_RECORDS = 10_000


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    ``index`` is the span's start order (0-based, process-wide per
    tracer); ``parent`` is the enclosing span's index or -1 at the root.
    Records are appended in *completion* order, so children precede
    their parents in the record list but ``index``/``parent`` recover
    the call tree.
    """

    name: str
    index: int
    parent: int
    depth: int
    start_s: float
    end_s: float
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """A live span; records itself on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "_index", "_parent", "_depth", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._index = -1
        self._parent = -1
        self._depth = 0
        self._start = 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to a live span (e.g. results known late)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._index, self._parent, self._depth = self._tracer._enter()
        self._start = self._tracer.clock()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        end = self._tracer.clock()
        if exc_type is not None:
            self.attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        self._tracer._exit(
            SpanRecord(
                name=self.name,
                index=self._index,
                parent=self._parent,
                depth=self._depth,
                start_s=self._start,
                end_s=end,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects :class:`SpanRecord` objects with per-thread nesting."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        emit: Callable[[SpanRecord], None] | None = None,
    ) -> None:
        self.clock = clock
        self.records: deque[SpanRecord] = deque(maxlen=MAX_KEPT_RECORDS)
        self._emit = emit
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_index = 0

    def span(self, name: str, **attrs: object) -> Span:
        return Span(self, name, attrs)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[int, int, int]:
        stack = self._stack()
        with self._lock:
            index = self._next_index
            self._next_index += 1
        parent = stack[-1] if stack else -1
        depth = len(stack)
        stack.append(index)
        return index, parent, depth

    def _exit(self, record: SpanRecord) -> None:
        stack = self._stack()
        if stack and stack[-1] == record.index:
            stack.pop()
        with self._lock:
            self.records.append(record)
        if self._emit is not None:
            self._emit(record)

    def record_span(
        self, name: str, start_s: float, end_s: float, **attrs: object
    ) -> SpanRecord:
        """Record a span whose interval was measured externally.

        The serving path measures some intervals (a request's queue wait)
        with timestamps taken outside any ``with`` block; this creates
        the :class:`SpanRecord` retroactively.  The span parents under
        whatever is live on the calling thread, so a queue-wait recorded
        during a flush nests under the flush span.
        """
        stack = self._stack()
        with self._lock:
            index = self._next_index
            self._next_index += 1
        record = SpanRecord(
            name=name,
            index=index,
            parent=stack[-1] if stack else -1,
            depth=len(stack),
            start_s=start_s,
            end_s=end_s,
            attrs=attrs,
        )
        with self._lock:
            self.records.append(record)
        if self._emit is not None:
            self._emit(record)
        return record

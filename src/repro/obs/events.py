"""JSONL event sink: one JSON object per line, append-only.

The sink is the durable half of the observability layer: spans, decision
records, structured log lines, and the exit-time metrics snapshot all
flow through :meth:`JsonlSink.emit` as ``{"kind": ..., ...}`` objects.
Lines are written atomically-enough for the repo's needs: the file is
opened in append mode and each event is a single flushed ``write`` call,
so concurrent processes (e.g. forked shard workers) interleave whole
lines rather than corrupting each other.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

__all__ = ["JsonlSink"]


class JsonlSink:
    """Appends events to a JSONL file, opening it lazily on first emit."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._handle: io.TextIOWrapper | None = None
        self._pid = os.getpid()

    def _file(self) -> io.TextIOWrapper:
        # Reopen after fork: a handle shared with the parent would
        # interleave buffered partial lines.
        if self._handle is None or self._pid != os.getpid():
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            self._pid = os.getpid()
        return self._handle

    def emit(self, kind: str, payload: dict) -> None:
        """Write one ``{"kind": kind, "pid": ..., **payload}`` line."""
        record = {"kind": kind, "pid": os.getpid(), **payload}
        handle = self._file()
        handle.write(json.dumps(record, sort_keys=False, default=str) + "\n")
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def abandon(self) -> None:
        """Drop the handle without flushing it (forked children).

        A handle inherited across fork may hold buffered partial lines
        the parent already owns; closing would flush them into the file
        as duplicates, so the child just forgets the handle instead.
        """
        self._handle = None

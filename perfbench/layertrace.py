"""Layer spans recorded from outside the program.

The benchmark times each layer by wrapping the layer's public entry points
(module functions and class methods) with a recorder, not by reading the
program's own ``repro.obs`` spans.  Each wrapped call records one span:
its name, start, end, the span open when it was called (its parent), the
number of rows it handled and the benchmark's current request tag or batch
id.  Spans stay in memory until the run ends; :meth:`SpanRecorder.save`
writes them out and :func:`summarize` reduces them to per-name counts,
wall time and self time.

A wrapped function is looked up where its caller binds it: ``simulate`` is
wrapped once in :mod:`repro.runtime.engine.decision` (fleet estimates) and
once in :mod:`repro.runtime.deploy` (execution), because each module holds
its own reference.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "SpanRecorder",
    "Target",
    "coverage",
    "in_windows",
    "standard_targets",
    "summarize",
]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` recorded as ``name``."""

    owner: object  # a module or a class
    attr: str
    name: str
    rows: Callable[[tuple], int] | None = None  # None: one row per call


def _len_arg(index: int):
    """Rows = ``len`` of positional argument ``index`` (``self`` counts)."""
    return lambda args: len(args[index])


def _vector_rows(args) -> int:
    features = np.asarray(args[1])
    return 1 if features.ndim == 1 else int(features.shape[0])


def standard_targets(predictor_cls: type, backend_cls: type) -> list[Target]:
    """The public entry points of every measured layer.

    ``predictor_cls`` is the class of the map's predictor (its online
    candidates share it) and ``backend_cls`` the class of the backend the
    caller executes through.
    """
    from repro.core import online
    from repro.core.heteromap import HeteroMap
    from repro.runtime import deploy, server
    from repro.runtime.engine import decision, scheduler

    service = decision.DecisionService
    return [
        Target(deploy, "prepare_workload", "deploy.prepare_workload"),
        Target(HeteroMap, "train", "heteromap.train"),
        Target(HeteroMap, "run_fleet", "heteromap.run_fleet", _len_arg(1)),
        Target(server.DecisionServer, "try_submit", "server.try_submit"),
        Target(service, "encode", "decision.encode", _len_arg(1)),
        Target(service, "choose_encoded", "decision.choose_encoded", _len_arg(1)),
        Target(service, "decide_batch", "decision.decide_batch", _len_arg(1)),
        Target(predictor_cls, "predict_batch", "predictor.predict_batch", _len_arg(1)),
        Target(predictor_cls, "predict_vector", "predictor.predict_vector", _vector_rows),
        Target(predictor_cls, "fit", "predictor.fit", _len_arg(1)),
        Target(decision, "decode_config_batch", "encoding.decode_config_batch", _len_arg(0)),
        Target(decision, "decode_config_for", "encoding.decode_config_for", _len_arg(0)),
        Target(decision, "simulate", "accel.simulate"),
        Target(deploy, "simulate", "accel.simulate"),
        Target(scheduler.Scheduler, "place", "scheduler.place", _len_arg(1)),
        Target(backend_cls, "execute", "backend.execute"),
        Target(online.OnlineAdapter, "observe", "online.observe"),
    ]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it.

    Single-threaded by design: every workload drives the program from one
    thread, so a plain stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rows = array("q")
        self.tag = array("q")
        #: Request tag or batch id stamped on every span opened now.
        self.current_tag = -1
        #: Submit time minus scheduled arrival (s) of open-loop requests.
        self.lateness_s: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, bool, object]] = []

    def _id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _wrap(self, target: Target, fn):
        name_id = self._id(target.name)
        count_rows = target.rows
        stack = self._stack
        clock = time.perf_counter
        starts, ends = self.start, self.end
        lateness = self.lateness_s if target.attr == "try_submit" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if lateness is not None and kwargs.get("arrival_s") is not None:
                # The server's clock is time.monotonic.
                lateness.append(time.monotonic() - kwargs["arrival_s"])
            index = len(starts)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.rows.append(1 if count_rows is None else count_rows(args))
            self.tag.append(self.current_tag)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; an attribute already wrapped is skipped."""
        seen = {(id(owner), attr) for owner, attr, _, _ in self._saved}
        for target in targets:
            key = (id(target.owner), target.attr)
            if key in seen:
                continue
            seen.add(key)
            own = target.attr in vars(target.owner)
            original = vars(target.owner)[target.attr] if own else None
            # On a class this is the plain function (inherited or not),
            # so the wrapper receives ``self`` as its first argument.
            fn = getattr(target.owner, target.attr)
            setattr(target.owner, target.attr, self._wrap(target, fn))
            self._saved.append((target.owner, target.attr, own, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute exactly as it was."""
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def table(self) -> dict[str, np.ndarray]:
        """The spans as NumPy columns, plus ``duration`` and ``self``
        (duration minus the time of wrapped children)."""
        table = {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
        }
        duration = table["end"] - table["start"]
        parent = table["parent"]
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        table["duration"] = duration
        table["self"] = duration - child_time
        return table

    def save(self, path: Path) -> None:
        """Write the spans and their name table to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            key: value
            for key, value in self.table().items()
            if key not in ("duration", "self")
        }
        np.savez(path, names=np.array(self.names), **columns)


def summarize(
    recorder: SpanRecorder, table: dict[str, np.ndarray], mask: np.ndarray
) -> dict[str, dict[str, float]]:
    """Per span name over the ``mask``-selected spans: ``calls``,
    ``rows``, ``total_s``, ``self_s``, and the calls/rows/total of those
    whose parent is an ``online.observe`` span (``observe_*``)."""
    parent = table["parent"]
    parent_name = np.where(parent >= 0, table["name_id"][np.maximum(parent, 0)], -1)
    observe = (
        recorder.names.index("online.observe")
        if "online.observe" in recorder.names
        else -2
    )
    under_observe = parent_name == observe
    summary = {}
    for index, name in enumerate(recorder.names):
        mine = mask & (table["name_id"] == index)
        nested = mine & under_observe
        summary[name] = {
            "calls": int(mine.sum()),
            "rows": int(table["rows"][mine].sum()),
            "total_s": float(table["duration"][mine].sum()),
            "self_s": float(table["self"][mine].sum()),
            "observe_calls": int(nested.sum()),
            "observe_rows": int(table["rows"][nested].sum()),
            "observe_total_s": float(table["duration"][nested].sum()),
        }
    return summary


def in_windows(table: dict[str, np.ndarray], windows) -> np.ndarray:
    """Mask of spans that start inside any ``(start, end)`` window."""
    mask = np.zeros(len(table["start"]), dtype=bool)
    for lo, hi in windows:
        mask |= (table["start"] >= lo) & (table["start"] < hi)
    return mask


def coverage(table: dict[str, np.ndarray], windows) -> tuple[float, float]:
    """(time covered by top-level spans, total time) over ``windows``.

    Top-level spans never overlap (one thread), so their clipped sum is
    the covered time.
    """
    top = table["parent"] < 0
    starts, ends = table["start"][top], table["end"][top]
    covered = total = 0.0
    for lo, hi in windows:
        total += hi - lo
        covered += float((np.clip(ends, lo, hi) - np.clip(starts, lo, hi)).sum())
    return covered, total

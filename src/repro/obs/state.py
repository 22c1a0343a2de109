"""Process-wide observability state and the no-op fast path.

One :class:`ObsState` singleton owns the tracer, the metrics registry,
the decision-record buffer, the prediction-quality observatory, the SLO
registry, and the optional JSONL sink.  The facade functions here are
what instrumented code calls; all of them check ``state.enabled`` first
and fall through to a no-op, so with ``REPRO_OBS`` unset the per-call
cost is one attribute load and a branch — no allocations, no locks, no
I/O.  The guard test in ``tests/obs/test_disabled.py`` pins that
contract.

Spans created while a :func:`repro.obs.trace_context.trace_scope` is
active are automatically tagged with the active trace id(s), which is
how one request's ``trace_id`` stitches its queue-wait, flush, decide,
placement, and execution spans together in the JSONL stream.

Tests reconfigure the singleton with :func:`configure` (fake clocks,
temp JSONL paths) and restore it with :func:`reset`.
"""

from __future__ import annotations

import atexit
import time
from dataclasses import replace
from typing import Callable, Iterable

from repro.obs.audit import DecisionRecord
from repro.obs.config import ObsConfig, config_from_env
from repro.obs.events import JsonlSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import RegretTracker
from repro.obs.slo import SLORegistry, SLOSpec
from repro.obs.trace_context import active_trace_ids
from repro.obs.tracer import NOOP_SPAN, SpanRecord, Tracer

__all__ = [
    "ObsState",
    "state",
    "configure",
    "reinit_child",
    "reset",
    "enabled",
    "quiet",
    "set_quiet",
    "span",
    "record_span",
    "counter",
    "gauge",
    "histogram",
    "record_decision",
    "record_promotion",
    "trace_link",
    "slo_observe",
    "install_slos",
    "prometheus_text",
    "flush",
]


class ObsState:
    """Everything the observability layer accumulates in one process."""

    def __init__(
        self,
        config: ObsConfig,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.config = config
        self.enabled = config.enabled
        self.clock = clock
        self.sink = JsonlSink(config.jsonl_path) if config.jsonl_path else None
        self.tracer = Tracer(clock=clock, emit=self._emit_span)
        self.metrics = MetricsRegistry()
        self.decisions: list[DecisionRecord] = []
        #: The prediction-quality observatory and the SLO registry only
        #: exist on the enabled path — disabled states keep the ``None``
        #: so the facade's single-branch contract holds.
        self.slos: SLORegistry | None = (
            SLORegistry(metrics=self.metrics) if config.enabled else None
        )
        self.quality: RegretTracker | None = (
            RegretTracker(metrics=self.metrics, slos=self.slos)
            if config.enabled
            else None
        )
        self._flushed = False

    def _emit_span(self, record: SpanRecord) -> None:
        if self.sink is not None:
            self.sink.emit("span", record.as_dict())

    def flush(self) -> None:
        """Write the exit-time exports (metrics snapshot, Prometheus file).

        Runs at most once per state; registered with ``atexit`` so every
        instrumented process leaves a metrics snapshot in its JSONL
        stream for the report CLI to aggregate.
        """
        if self._flushed:
            return
        self._flushed = True
        if self.enabled and self.sink is not None:
            self.sink.emit("metrics", {"metrics": self.metrics.as_dict()})
            self.sink.close()
        if self.enabled and self.config.prom_path is not None:
            self.config.prom_path.write_text(
                self.metrics.to_prometheus(), encoding="utf-8"
            )


_state = ObsState(config_from_env())


def state() -> ObsState:
    """The live singleton (inspection from tests and the report CLI)."""
    return _state


def configure(
    config: ObsConfig | None = None,
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> ObsState:
    """Replace the singleton (tests; CLIs toggling quiet mode).

    Passing ``config=None`` re-reads the environment.
    """
    global _state
    _state.flush()
    _state = ObsState(config_from_env() if config is None else config, clock=clock)
    return _state


def reset() -> ObsState:
    """Rebuild state from the current environment."""
    return configure(None)


def reinit_child() -> ObsState:
    """Rebuild state in a freshly forked/spawned worker process.

    A forked child inherits the parent's singleton — including its
    buffered metrics and an open JSONL sink pointed at the parent's
    file.  Flushing that inherited state would double-count the parent's
    events, so it is *discarded* (marked flushed without writing) and a
    new state is built from the child's environment.  Shard workers set
    their per-shard ``REPRO_OBS`` stream before calling this.
    """
    global _state
    _state._flushed = True  # drop inherited buffers: the parent owns them
    if _state.sink is not None:
        _state.sink.abandon()
    _state = ObsState(config_from_env())
    return _state


def enabled() -> bool:
    return _state.enabled


def quiet() -> bool:
    return _state.config.quiet


def set_quiet(value: bool) -> None:
    """Toggle human stderr output (the CLIs' ``--quiet`` flag) without
    rebuilding the state or touching the event stream."""
    _state.config = replace(_state.config, quiet=value)


def span(name: str, **attrs: object):
    """A tracing span context manager; shared no-op when disabled.

    Active trace ids tag the span automatically: a single-request
    scope adds ``trace_id``, a batch scope adds the row-ordered
    ``trace_ids`` list.
    """
    if not _state.enabled:
        return NOOP_SPAN
    ids = active_trace_ids()
    if ids:
        if len(ids) == 1:
            attrs.setdefault("trace_id", ids[0])
        else:
            attrs.setdefault("trace_ids", list(ids))
    return _state.tracer.span(name, **attrs)


def record_span(name: str, start_s: float, end_s: float, **attrs: object) -> None:
    """Record an externally measured interval as a span (e.g. queue wait)."""
    if _state.enabled:
        _state.tracer.record_span(name, start_s, end_s, **attrs)


def counter(name: str, value: float = 1.0, **labels: object) -> None:
    if _state.enabled:
        _state.metrics.inc(name, value, **labels)


def gauge(name: str, value: float, **labels: object) -> None:
    if _state.enabled:
        _state.metrics.set_gauge(name, value, **labels)


def histogram(name: str, value: float, **labels: object) -> None:
    if _state.enabled:
        _state.metrics.observe(name, value, **labels)


def record_decision(record: DecisionRecord) -> None:
    """Buffer (and export) one predictor decision-audit record.

    The same payload dict feeds the JSONL sink and the quality
    observatory, so an offline replay of the stream folds *exactly* the
    records the online tracker saw, in the same order.
    """
    if not _state.enabled:
        return
    _state.decisions.append(record)
    _state.metrics.inc("heteromap.decisions", accelerator=record.chosen_accelerator)
    _state.metrics.observe("heteromap.decision_margin_pct", record.margin_pct)
    payload = record.as_dict()
    if _state.sink is not None:
        _state.sink.emit("decision", payload)
    if _state.quality is not None:
        _state.quality.observe_record(payload)


def record_promotion(payload: dict) -> None:
    """Record one online-adaptation promotion event.

    ``payload`` is the adapter's promotion summary (predictor, old/new
    generation, shadow regrets, buffer size).  Exported three ways so the
    event is visible everywhere the quality observatory is: the
    ``quality.promotions`` counter and ``quality.generation`` gauge on
    ``/metrics``, and a ``promotion`` event in the JSONL stream for the
    report CLI.
    """
    if not _state.enabled:
        return
    predictor = str(payload.get("predictor", "?"))
    _state.metrics.inc("quality.promotions", predictor=predictor)
    generation = payload.get("generation")
    if generation is not None:
        _state.metrics.set_gauge(
            "quality.generation", float(generation), predictor=predictor
        )
    if _state.sink is not None:
        _state.sink.emit("promotion", payload)


def trace_link(trace_id: str, origin: str) -> None:
    """Record that ``trace_id``'s result was computed under ``origin``.

    Emitted on decision-cache hits: the hit's request links back to the
    trace that originally computed the cached entry.
    """
    if not _state.enabled:
        return
    _state.metrics.inc("trace.link")
    if _state.sink is not None:
        _state.sink.emit(
            "trace_link", {"trace_id": trace_id, "origin": origin}
        )


def slo_observe(metric: str, value: float) -> None:
    """Feed one observation to the SLO registry (no-op when unwatched)."""
    if _state.enabled and _state.slos is not None:
        _state.slos.observe(metric, value)


def install_slos(specs: Iterable[SLOSpec]) -> None:
    """Install SLO specs on the live registry (no-op when disabled)."""
    if _state.enabled and _state.slos is not None:
        for spec in specs:
            _state.slos.install(spec)


def prometheus_text() -> str:
    """Prometheus-style text snapshot of the live metrics registry."""
    return _state.metrics.to_prometheus()


def flush() -> None:
    """Force the exit-time exports now (CI steps that outlive the run)."""
    _state.flush()


atexit.register(lambda: _state.flush())

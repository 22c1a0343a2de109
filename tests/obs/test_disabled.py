"""The disabled fast path must be free: no spans, no series, no events.

This is the guard behind the bench-sweep acceptance criterion — with
``REPRO_OBS=0`` the instrumentation on the hot paths must not allocate.
"""

from __future__ import annotations

import repro.obs as obs
from repro.machine.mvars import MachineConfig
from repro.machine.specs import get_accelerator
from repro.obs.tracer import NOOP_SPAN


class TestDisabledPath:
    def test_span_is_the_shared_noop_singleton(self):
        obs.configure(obs.ObsConfig(enabled=False))
        first = obs.span("tuning.sweep", accelerator="phi")
        second = obs.span("anything.else")
        # Identity, not equality: the disabled path hands out one shared
        # object, so per-call span allocation is provably zero.
        assert first is NOOP_SPAN
        assert second is NOOP_SPAN
        with first as span:
            span.set(configs=1953)

    def test_no_records_or_series_accumulate(self):
        state = obs.configure(obs.ObsConfig(enabled=False))
        with obs.span("outer"):
            obs.counter("cache.hit")
            obs.gauge("g", 1.0)
            obs.histogram("h", 2.0)
        assert not state.tracer.records
        assert state.metrics.counters == {}
        assert state.metrics.gauges == {}
        assert state.metrics.histograms == {}

    def test_record_decision_is_a_noop(self):
        state = obs.configure(obs.ObsConfig(enabled=False))
        record = obs.DecisionRecord(
            benchmark="pagerank",
            dataset="usa-cal",
            predictor="deep128",
            metric="time",
            features=(0.0,) * 17,
            chosen_accelerator="gtx750ti",
            config="gpu(g=1,l=1)",
            predicted_time_ms=1.0,
            predicted_energy_j=1.0,
            predicted_utilization=0.5,
            runner_up_accelerator="xeonphi7120p",
            runner_up_time_ms=2.0,
        )
        obs.record_decision(record)
        assert not state.decisions

    def test_quality_and_slo_planes_are_not_built(self):
        state = obs.configure(obs.ObsConfig(enabled=False))
        assert state.quality is None
        assert state.slos is None

    def test_observability_facades_are_noops(self):
        state = obs.configure(obs.ObsConfig(enabled=False))
        obs.record_span("server.queue_wait", start_s=0.0, end_s=1.0)
        obs.trace_link("t-hit", "t-miss")
        obs.install_slos(obs.DEFAULT_SERVE_SLOS)
        obs.slo_observe("decision_latency_ms", 100.0)
        assert not state.tracer.records
        assert state.metrics.counters == {}
        assert state.slos is None
        assert obs.current_trace() is None
        assert obs.active_trace_ids() == ()

    def test_instrumented_hot_path_stays_clean(self):
        """A real simulate() call must leave zero observable residue."""
        from repro.accel.simulator import simulate
        from repro.workload.phases import PhaseKind
        from repro.workload.profile import KernelTrace, PhaseTrace, build_profile
        from repro.features.bvars import BVariables

        state = obs.configure(obs.ObsConfig(enabled=False))
        spec = get_accelerator("gtx750ti")
        trace = KernelTrace(
            benchmark="b",
            graph_name="g",
            phases=(PhaseTrace(PhaseKind.VERTEX_DIVISION, 10.0, 20.0, 5.0, 0.1),),
            num_iterations=1,
        )
        profile = build_profile(
            trace,
            BVariables(b1=1.0),
            target_vertices=10.0,
            target_edges=20.0,
            source_vertices=10.0,
            source_edges=20.0,
        )
        simulate(profile, spec, MachineConfig(accelerator=spec.name))
        assert state.metrics.counters == {}
        assert not state.tracer.records

"""Equivalence suite: the lattice pass and ``simulate`` vs the per-phase model.

The batch path evaluates the cost model's formula over a config set as
array expressions, and ``simulate`` evaluates it on one row of Python
floats; these tests pin both to the per-phase reference
(``reference_simulate``) exactly (``==``) for time, energy, and
utilization — across the full lattice of every accelerator spec, on
randomized profiles, and on explicit config lists — so neither
evaluation can silently drift from the model the figures validate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.accel.batch import ConfigTable, batch_evaluate, lattice_table
from repro.accel.simulator import simulate
from repro.errors import SimulationError
from repro.features.bvars import BVariables
from repro.machine.space import iter_configs, thread_sweep_configs
from repro.machine.specs import ACCELERATORS, get_accelerator
from repro.workload.phases import PhaseKind
from repro.workload.profile import KernelTrace, PhaseTrace, build_profile
from repro.validation.oracle import reference_simulate
from repro.workload.synthetic import generate_samples

from tests.accel.test_cost_model import make_profile

ALL_SPECS = tuple(ACCELERATORS.values())


def _random_profiles(num: int, seed: int):
    """Synthetic-training-style randomized workload profiles."""
    profiles = []
    for sample in generate_samples(num, seed=seed):
        graph = sample.graph
        profiles.append(
            build_profile(
                sample.trace,
                sample.bvars,
                target_vertices=graph.num_vertices,
                target_edges=graph.num_edges,
                source_vertices=graph.num_vertices,
                source_edges=graph.num_edges,
            )
        )
    return profiles


def _assert_matches_scalar(profile, spec, result):
    """Every lattice point of ``result``, and ``simulate`` of it, equals
    the per-phase reference exactly."""
    for i, config in enumerate(result.configs):
        ref = reference_simulate(profile, spec, config)
        assert result.time_s[i] == ref.time_s
        assert result.energy_j[i] == ref.energy_j
        assert result.utilization[i] == ref.utilization
        assert result.materialize(i) == ref
        assert simulate(profile, spec, config) == ref


class TestFullLatticeEquivalence:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_randomized_profiles_full_lattice(self, spec):
        for profile in _random_profiles(3, seed=11):
            _assert_matches_scalar(profile, spec, batch_evaluate(profile, spec))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "kind", [PhaseKind.PUSH_POP, PhaseKind.REDUCTION, PhaseKind.PARETO]
    )
    def test_divergent_phase_kinds(self, spec, kind):
        profile = make_profile(kind=kind, b6=0.4, b8=0.3, b12=0.6, skew=0.7)
        _assert_matches_scalar(profile, spec, batch_evaluate(profile, spec))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_streaming_overflow_graph(self, spec):
        # A footprint far beyond device memory exercises the streaming term.
        profile = make_profile(vertices=5e8, edges=5e9, b12=0.1)
        _assert_matches_scalar(profile, spec, batch_evaluate(profile, spec))

    def test_covers_whole_lattice(self):
        spec = get_accelerator("xeonphi7120p")
        result = batch_evaluate(make_profile(), spec)
        size = len(list(iter_configs(spec)))
        assert len(result) == size
        assert result.time_s.shape == (size,)


class TestExplicitConfigs:
    def test_thread_sweep_configs_match_scalar(self):
        profile = make_profile()
        for name in ("gtx750ti", "cpu40core"):
            spec = get_accelerator(name)
            configs = [c for _, c in thread_sweep_configs(spec, 8)]
            result = batch_evaluate(profile, spec, configs)
            _assert_matches_scalar(profile, spec, result)

    def test_prebuilt_table_reused(self):
        spec = get_accelerator("gtx750ti")
        table = ConfigTable.from_configs(spec, iter_configs(spec))
        result = batch_evaluate(make_profile(), spec, table)
        assert result.table is table

    def test_empty_config_list_rejected(self):
        spec = get_accelerator("gtx750ti")
        with pytest.raises(SimulationError):
            ConfigTable.from_configs(spec, [])

    def test_mismatched_table_spec_rejected(self):
        gpu = get_accelerator("gtx750ti")
        phi = get_accelerator("xeonphi7120p")
        with pytest.raises(SimulationError):
            batch_evaluate(make_profile(), phi, lattice_table(gpu))


class TestBatchResultHelpers:
    def test_materialize_round_trips_arrays(self):
        spec = get_accelerator("xeonphi7120p")
        result = batch_evaluate(make_profile(), spec)
        index = 17
        sim = result.materialize(index)
        assert sim.time_s == result.time_s[index]
        assert sim.energy_j == result.energy_j[index]
        assert sim.utilization == result.utilization[index]
        assert sim.config == result.configs[index]
        assert len(sim.cost.phase_costs) == len(result.phase_kinds)

    def test_argbest_matches_scalar_scan(self):
        profile = make_profile()
        for spec in ALL_SPECS:
            result = batch_evaluate(profile, spec)
            best = result.argbest("time")
            scan_best, scan_value = None, float("inf")
            for i, config in enumerate(iter_configs(spec)):
                value = reference_simulate(profile, spec, config).time_s
                if value < scan_value:
                    scan_best, scan_value = i, value
            assert best == scan_best

    def test_objective_metrics(self):
        spec = get_accelerator("gtx750ti")
        result = batch_evaluate(make_profile(), spec)
        assert np.array_equal(
            result.objective("edp"), result.time_s * result.energy_j
        )
        with pytest.raises(SimulationError):
            result.objective("latency")

    def test_lattice_table_cached(self):
        spec = get_accelerator("gtx970")
        assert lattice_table(spec) is lattice_table(spec)


def _mixed_phase_profile():
    """A PageRank-like all-vertex phase followed by a frontier phase."""
    bvars = BVariables(
        b1=0.7, b3=0.3, b6=0.3, b7=0.5, b8=0.2, b9=0.4, b10=0.4, b11=0.2,
        b12=0.2, b13=0.2,
    )
    vertices, edges, iterations = 4e6, 6e7, 20
    trace = KernelTrace(
        benchmark="pagerank-frontier",
        graph_name="g",
        phases=(
            PhaseTrace(
                kind=PhaseKind.VERTEX_DIVISION,
                items=vertices * iterations,
                edges=edges * iterations,
                max_parallelism=vertices,
                work_skew=0.4,
            ),
            PhaseTrace(
                kind=PhaseKind.PARETO_DYNAMIC,
                items=vertices,
                edges=edges,
                max_parallelism=vertices / 3.0,
                work_skew=0.5,
            ),
        ),
        num_iterations=iterations,
    )
    return build_profile(
        trace, bvars,
        target_vertices=vertices, target_edges=edges,
        source_vertices=vertices, source_edges=edges,
    )


def _best_of(fn, repeats: int = 3) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


class TestSweepSpeed:
    def test_batch_pass_beats_the_scalar_loop_tenfold(self):
        """The reason the batch evaluator exists: one pass over
        xeonphi7120p's whole lattice must run at least 10x faster than
        one ``simulate`` call per config, even when each call reads the
        config's kept terms (about 95x on a 2-CPU Xeon)."""
        spec = get_accelerator("xeonphi7120p")
        profile = _mixed_phase_profile()
        configs = list(iter_configs(spec))
        assert len(configs) == 1944
        batch_evaluate(profile, spec)  # build the lattice table, warm NumPy
        scalar_s = _best_of(lambda: [simulate(profile, spec, c) for c in configs])
        batch_s = _best_of(lambda: batch_evaluate(profile, spec))
        assert scalar_s >= 10.0 * batch_s, (scalar_s, batch_s)

"""Exactness suite for the cost model's row evaluations.

The fleet path costs arbitrary ``(profile, spec, config)`` rows in one
array pass per accelerator kind (``fleet_evaluate``), and ``simulate``
costs one deployment on Python floats; both run the same formula.
These tests compare each with the per-phase reference
(``reference_simulate``) by ``==`` (no tolerance) on mixed-spec fleets,
on the inputs where NumPy and libm would round differently, and on the
edge cases of the model, and with the terms both keep per profile and
per config; they also pin the decision layer's crossover between the
one-row loop and the array pass, and the ceiling rule's no-copy path.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

import repro.accel.batch as batch_module
from repro.accel.batch import batch_evaluate, fleet_evaluate
from repro.accel.simulator import simulate
from repro.core.heteromap import HeteroMap
from repro.machine.fleet import synthetic_fleet
from repro.machine.mvars import (
    MachineConfig,
    OmpSchedule,
    clamp_config,
    default_config,
    total_threads,
)
from repro.machine.specs import get_accelerator
from repro.runtime.deploy import prepare_workload
from repro.runtime.engine.decision import ARRAY_PASS_MIN_ROWS
from repro.validation.oracle import random_config, random_profile, reference_simulate
from repro.workload.phases import PhaseKind
from repro.workload.profile import PhaseProfile, WorkloadProfile

from tests.accel.test_cost_model import make_profile
from tests.engine.test_decode_fleet import count_costing

FLEET8 = synthetic_fleet(8).devices


def _continuous_config(spec, rng):
    """A config off every lattice: continuous blocktime and placement,
    arbitrary chunk and thread counts, often beyond the spec's maxima."""
    return replace(
        random_config(spec, rng),
        omp_chunk=int(rng.integers(1, 5000)),
        gpu_local_threads=int(rng.integers(1, 2049)),
    )


def _edge_profile(items: float, total_bytes: float) -> WorkloadProfile:
    """Two phases, one of them possibly item-less or byte-less."""
    phases = []
    for kind in (PhaseKind.PARETO, PhaseKind.PUSH_POP):
        phases.append(
            PhaseProfile(
                kind=kind,
                items=items,
                edges=3.0 * items,
                max_parallelism=max(items, 1.0),
                work_skew=0.3,
                int_ops=1e6,
                fp_ops=2e5,
                seq_bytes=0.5 * total_bytes,
                rand_bytes=0.3 * total_bytes,
                indirect_bytes=0.2 * total_bytes,
                shared_ro_bytes=0.4 * total_bytes,
                shared_rw_bytes=0.1 * total_bytes,
                local_bytes=0.0,
                atomics=1e3,
                barriers=4.0,
            )
        )
    return WorkloadProfile(
        benchmark="edge",
        graph_name="edge",
        phases=tuple(phases),
        num_iterations=3,
        footprint_bytes=1e8,
        contention=0.4,
    )


def _assert_rows_exact(rows, simulate_first=False):
    """``fleet_evaluate`` and a ``simulate`` loop equal the reference on
    every row; ``simulate_first`` runs the loop first, so it meets the
    kept terms (or a stale entry) before the pass does."""
    if simulate_first:
        one_row = [simulate(*row) for row in rows]
        results = fleet_evaluate(rows)
    else:
        results = fleet_evaluate(rows)
        one_row = [simulate(*row) for row in rows]
    assert len(results) == len(rows)
    for row, result, alone in zip(rows, results, one_row):
        reference = reference_simulate(*row)
        assert result == reference, row[1].name
        assert alone == reference, row[1].name


def test_ten_thousand_mixed_spec_rows():
    """synthetic_fleet(8): four real specs plus their derated -g2
    variants, coherent multicores and non-coherent GPUs."""
    rng = np.random.default_rng(2024)
    assert {spec.coherent for spec in FLEET8} == {True, False}
    profiles = [random_profile(rng) for _ in range(24)]
    profiles += [make_profile(kind=kind) for kind in PhaseKind]
    rows = []
    for _ in range(10_000):
        spec = FLEET8[int(rng.integers(len(FLEET8)))]
        profile = profiles[int(rng.integers(len(profiles)))]
        rows.append((profile, spec, _continuous_config(spec, rng)))
    for start in range(0, len(rows), 500):
        _assert_rows_exact(rows[start : start + 500])


def test_phase_counts_fold_through_padding():
    """Rows of one-, two- and many-phase workloads in one pass."""
    rng = np.random.default_rng(7)
    one = make_profile()
    many = WorkloadProfile(
        benchmark="many",
        graph_name="g",
        phases=one.phases * 3 + _edge_profile(1e5, 1e7).phases,
        num_iterations=4,
        footprint_bytes=one.footprint_bytes,
        contention=0.3,
    )
    rows = [
        (profile, spec, _continuous_config(spec, rng))
        for profile in (one, many, _edge_profile(1e5, 1e7))
        for spec in FLEET8
    ]
    _assert_rows_exact(rows)


def test_kept_terms_follow_the_spec_object():
    """The pass and ``simulate`` keep a profile's phase terms per spec
    object in ``profile.cost_terms``; another spec of the same name, a
    copied profile and an entry under a reused id are all costed afresh,
    whichever evaluation meets them first, and the kept terms never show
    in the profile's ``==``, ``hash`` or ``repr``."""
    for simulate_first in (False, True):
        _check_kept_profile_terms(simulate_first)


def _check_kept_profile_terms(simulate_first):
    rng = np.random.default_rng(29)
    profile = make_profile()
    before = (hash(profile), repr(profile))
    spec = get_accelerator("xeonphi7120p")
    bigger = replace(spec, cache_mb=spec.cache_mb * 8)
    config = _continuous_config(spec, rng)
    assert reference_simulate(profile, bigger, config) != reference_simulate(
        profile, spec, config
    )

    def exact(rows):
        _assert_rows_exact(rows, simulate_first)

    exact([(profile, spec, config)])
    exact([(profile, spec, config), (profile, bigger, config)])
    twin = copy.deepcopy(profile)
    exact([(twin, spec, config), (twin, bigger, config)])
    # An entry left under an id that now names another spec object.
    stale = replace(profile)
    exact([(stale, bigger, config)])
    stale.cost_terms[id(spec)] = stale.cost_terms.pop(id(bigger))
    exact([(stale, spec, config)])

    assert (hash(profile), repr(profile)) == before
    assert profile == twin == stale
    assert not replace(profile).cost_terms


def test_kept_config_terms_follow_the_spec_object():
    """The pass and ``simulate`` keep a config's clamped form and
    ``_config_row`` per spec object in ``config.cost_terms``; a
    same-named spec with a lower ceiling, a copied config and an entry
    under a reused id are all costed afresh, whichever evaluation meets
    them first, and the kept terms never show in the config's ``==``,
    ``hash`` or ``repr``."""
    for simulate_first in (False, True):
        _check_kept_config_terms(simulate_first)


def _check_kept_config_terms(simulate_first):
    profile = make_profile()
    spec = get_accelerator("xeonphi7120p")
    config = MachineConfig(
        accelerator=spec.name,
        cores=spec.cores,
        threads_per_core=2,
        simd_width=8,
        blocktime_ms=37.5,
        omp_schedule=OmpSchedule.DYNAMIC,
        omp_chunk=7,
    )
    before = (hash(config), repr(config))
    lower = replace(spec, cores=spec.cores // 2)
    assert clamp_config(config, spec) is config
    assert clamp_config(config, lower) != config
    assert reference_simulate(profile, lower, config) != reference_simulate(
        profile, spec, config
    )

    def exact(rows):
        _assert_rows_exact(rows, simulate_first)

    exact([(profile, spec, config)])
    exact([(profile, spec, config), (profile, lower, config)])
    twin = copy.deepcopy(config)
    exact([(profile, spec, twin), (profile, lower, twin)])
    # An entry left under an id that now names another spec object.
    stale = replace(config)
    exact([(profile, lower, stale)])
    stale.cost_terms[id(spec)] = stale.cost_terms.pop(id(lower))
    exact([(profile, spec, stale)])

    assert (hash(config), repr(config)) == before
    assert config == twin == stale
    assert not replace(config).cost_terms


def test_simulate_again_takes_no_term(monkeypatch):
    """A second ``simulate`` of the very same profile, spec and config
    objects builds no phase, deploy or config term and clamps nothing,
    and equals the first."""
    rng = np.random.default_rng(31)
    profile = random_profile(rng)
    rows = [(profile, spec, _continuous_config(spec, rng)) for spec in FLEET8]
    first = [simulate(*row) for row in rows]
    calls = []

    def counting(name):
        original = getattr(batch_module, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        return counted

    for name in ("_row", "_deploy_row", "_config_row", "clamp_config"):
        monkeypatch.setattr(batch_module, name, counting(name))
    assert [simulate(*row) for row in rows] == first
    assert calls == []
    # The counters see a copy that keeps nothing.
    simulate(replace(profile), *rows[0][1:])
    assert {"_row", "_deploy_row"} <= set(calls)


@pytest.mark.parametrize(
    "items,total_bytes", [(0.0, 1e7), (1e5, 0.0), (0.0, 0.0)]
)
def test_zero_item_and_zero_byte_phases(items, total_bytes):
    rng = np.random.default_rng(11)
    profile = _edge_profile(items, total_bytes)
    rows = [
        (profile, spec, _continuous_config(spec, rng))
        for spec in FLEET8
        for _ in range(3)
    ]
    _assert_rows_exact(rows)


def _coherent_profile(rng, spec) -> WorkloadProfile:
    """Every term of a coherent cache's hit ratio live on ``spec``: rw-shared
    bytes, per-iteration state near the cache size (so only part of it is
    resident), and read-only data each pass scans again.  The footprint
    is several caches, which keeps the hit ratio under its 0.97 cap."""
    cache = spec.cache_bytes
    iterations = int(rng.integers(1, 20))
    footprint = cache * rng.uniform(4.0, 40.0)
    items = cache / 24.0 * rng.uniform(0.5, 4.0) * iterations
    total = footprint * rng.uniform(1.2, 8.0) * iterations
    seq, rand = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.4)
    phases = tuple(
        PhaseProfile(
            kind=kind,
            items=items,
            edges=items * rng.uniform(1.0, 30.0),
            max_parallelism=items / iterations,
            work_skew=rng.uniform(0.0, 1.0),
            int_ops=items * rng.uniform(5.0, 50.0),
            fp_ops=items * rng.uniform(0.0, 5.0),
            seq_bytes=total * seq,
            rand_bytes=total * rand,
            indirect_bytes=total * (1.0 - seq - rand),
            shared_ro_bytes=total * rng.uniform(0.05, 0.6),
            shared_rw_bytes=total * rng.uniform(0.05, 0.6),
            local_bytes=0.0,
            atomics=items * rng.uniform(0.0, 0.3),
            barriers=float(iterations),
        )
        for kind in (PhaseKind.PARETO, PhaseKind.PUSH_POP)
    )
    return WorkloadProfile(
        benchmark="coherent",
        graph_name="coherent",
        phases=phases,
        num_iterations=iterations,
        footprint_bytes=footprint,
        contention=rng.uniform(0.0, 0.5),
    )


def test_coherent_cache_terms():
    """Coherent multicore rows whose cache hit sums every coherent term
    below its cap, so a regrouped product in that sum shows."""
    rng = np.random.default_rng(23)
    coherent = [spec for spec in FLEET8 if spec.coherent and not spec.is_gpu]
    assert coherent
    rows = []
    for spec in coherent:
        for _ in range(250):
            profile = _coherent_profile(rng, spec)
            rows.append((profile, spec, _continuous_config(spec, rng)))
    _assert_rows_exact(rows)


def test_streaming_overflow_footprints():
    rng = np.random.default_rng(13)
    profile = make_profile(vertices=5e8, edges=5e9, b12=0.1)
    assert all(profile.footprint_bytes > spec.mem_bytes for spec in FLEET8)
    rows = [(profile, spec, _continuous_config(spec, rng)) for spec in FLEET8]
    _assert_rows_exact(rows)
    assert all(result.cost.streaming_s > 0 for result in fleet_evaluate(rows))


def _ramp_profile(max_par: float) -> WorkloadProfile:
    """One phase whose useful threads are ``max_par`` under any config
    with more threads (one edge per item, so a GPU adds none)."""
    items = 1e7
    phase = PhaseProfile(
        kind=PhaseKind.PARETO,
        items=items,
        edges=items,
        max_parallelism=max_par,
        work_skew=0.3,
        int_ops=1e8,
        fp_ops=1e6,
        seq_bytes=4e8,
        rand_bytes=2e8,
        indirect_bytes=1e8,
        shared_ro_bytes=2e8,
        shared_rw_bytes=1e8,
        local_bytes=0.0,
        atomics=1e5,
        barriers=10.0,
    )
    return WorkloadProfile(
        benchmark="ramp",
        graph_name="ramp",
        phases=(phase,),
        num_iterations=10,
        footprint_bytes=1e9,
        contention=0.2,
    )


def test_square_root_rounding_inputs():
    """Bandwidth-ramp ratios on which a correctly rounded square root
    differs from libm's ``pow(x, 0.5)``, the reference's ``x ** 0.5``.
    They are about 0.09% of inputs, so random thread counts rarely reach
    one; the row pass, ``simulate`` and the lattice pass (which takes
    the root once per distinct thread count) must round them as the
    reference does."""
    rng = np.random.default_rng(37)
    rows = []
    for spec in FLEET8:
        config = default_config(spec)
        if spec.is_gpu:
            saturation = spec.cores * min(spec.latency_hiding, 2.0)
        else:
            saturation = spec.cores * 0.5
        top = min(saturation, float(total_threads(config, spec)))
        found = 0
        while found < 6:
            useful = top * rng.uniform(0.01, 1.0)
            ratio = useful / saturation
            if useful >= 1.0 and math.sqrt(ratio) != ratio ** 0.5:
                rows.append((_ramp_profile(useful), spec, config))
                found += 1
    _assert_rows_exact(rows)
    for profile, spec, config in rows:
        table = batch_evaluate(profile, spec, [config])
        assert table.materialize(0) == reference_simulate(profile, spec, config)


def test_libm_sensitive_continuous_values():
    """Dense blocktime, chunk and useful/saturation sweeps: the inputs on
    which NumPy's SIMD power and log10 round differently from libm."""
    rng = np.random.default_rng(17)
    profile = random_profile(rng)
    rows = []
    for spec in FLEET8:
        for blocktime in np.linspace(1.0, 1000.0, 37):
            config = _continuous_config(spec, rng)
            rows.append((profile, spec, replace(config, blocktime_ms=float(blocktime))))
        step = max(1, spec.max_threads // 40)
        for threads in range(1, 2 * spec.max_threads, step):
            config = replace(
                _continuous_config(spec, rng),
                gpu_global_threads=threads,
                cores=min(spec.cores, 1 + threads // 4),
            )
            rows.append((profile, spec, config))
    _assert_rows_exact(rows)


def test_single_row_and_empty_inputs():
    rng = np.random.default_rng(19)
    spec = FLEET8[0]
    _assert_rows_exact([(make_profile(), spec, _continuous_config(spec, rng))])
    assert fleet_evaluate([]) == []


# -- the decision layer's crossover ---------------------------------------


def _same_decision(a, b, same_workload=True):
    assert a.workload is b.workload if same_workload else a.workload == b.workload
    assert a.estimates == b.estimates
    assert a.chosen_index == b.chosen_index
    assert a.runner_up_index == b.runner_up_index
    assert np.array_equal(a.vector, b.vector)
    assert (a.features, a.confidence) == (b.features, b.confidence)


@pytest.fixture(scope="module")
def fleet_map():
    """A trained CART map on a 4-device fleet: two devices per kind."""
    hetero = HeteroMap(synthetic_fleet(4), predictor="cart", seed=5)
    hetero.train(num_samples=40, seed=5)
    return hetero


@pytest.fixture(scope="module")
def workloads():
    """Enough distinct real workloads for a batch above the crossover."""
    pairs = [
        (benchmark, dataset)
        for benchmark in ("pagerank", "bfs", "sssp_bf", "connected_components")
        for dataset in ("facebook", "cage14", "usa-cal", "livejournal", "twitter")
    ]
    return [prepare_workload(b, d) for b, d in pairs]


def test_decisions_equal_across_the_crossover(fleet_map, workloads, monkeypatch):
    """Batches just below and just above the crossover (two devices per
    kind, so a workload adds two rows to each kind) take the one-row loop
    and the array pass, and decide alike, and alike with one-workload
    decides.  Each batch decides ``replace`` copies of the workloads,
    which keep no decision parts, so every row is costed."""
    per_kind = len(fleet_map.fleet.gpus)
    below = -(-ARRAY_PASS_MIN_ROWS // per_kind) - 1
    above = below + 1
    assert below * per_kind < ARRAY_PASS_MIN_ROWS <= above * per_kind
    assert len(workloads) > above
    decisions = fleet_map.decisions
    devices = len(fleet_map.fleet)
    counts = count_costing(monkeypatch)
    scalar = decisions.decide_batch([replace(w) for w in workloads[:below]])
    assert counts == {"simulate": below * devices, "pass": 0}
    counts = count_costing(monkeypatch)
    array = decisions.decide_batch([replace(w) for w in workloads[:above]])
    assert counts == {"simulate": 0, "pass": above * devices}
    for a, b in zip(scalar, array):
        _same_decision(a, b, same_workload=False)
    whole = decisions.decide_batch(workloads)
    for workload, decision in zip(workloads, whole):
        _same_decision(decisions.decide(workload), decision)


# -- the ceiling rule --------------------------------------------------------


def test_clamp_returns_config_within_ceilings_unchanged():
    spec = get_accelerator("xeonphi7120p")
    config = MachineConfig(
        accelerator=spec.name, cores=8, threads_per_core=2, simd_width=4
    )
    assert clamp_config(config, spec) is config


@pytest.mark.parametrize(
    "changes",
    [
        {"cores": 10_000},
        {"threads_per_core": 64},
        {"simd_width": 512},
        {"gpu_global_threads": 10**9},
        {"gpu_local_threads": 4096},
        {"accelerator": "elsewhere"},
    ],
)
def test_clamp_copies_when_a_ceiling_binds(changes):
    spec = get_accelerator("xeonphi7120p")
    config = replace(
        MachineConfig(accelerator=spec.name, cores=8, threads_per_core=2), **changes
    )
    clamped = clamp_config(config, spec)
    assert clamped is not config
    assert clamped == replace(
        config,
        accelerator=spec.name,
        cores=min(config.cores, spec.cores),
        threads_per_core=min(config.threads_per_core, spec.threads_per_core),
        simd_width=min(config.simd_width, spec.simd_width),
        gpu_global_threads=min(config.gpu_global_threads, spec.max_threads),
        gpu_local_threads=min(config.gpu_local_threads, 1024),
    )

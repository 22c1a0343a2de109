"""Exactness suite for the cost model's one-row evaluation.

``simulate`` costs one ``(profile, spec, config)`` deployment on Python
floats, and the decision layer costs every (workload × device) row of a
decide with it.  These tests compare it with the per-phase reference
(``reference_simulate``) by ``==`` (no tolerance) on mixed-spec fleets,
on the inputs where NumPy and libm would round differently, and on the
edge cases of the model, and with the terms it keeps per profile and
per config; they also pin that a batch decides as its workloads do
alone, and the ceiling rule's no-copy path.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

import repro.accel.batch as batch_module
from repro.accel.batch import batch_evaluate
from repro.accel.simulator import simulate
from repro.core.heteromap import HeteroMap
from repro.machine.fleet import synthetic_fleet
from repro.machine.mvars import MachineConfig, OmpSchedule, clamp_config
from repro.machine.specs import get_accelerator
from repro.runtime.deploy import prepare_workload
from repro.validation.oracle import (
    random_config,
    random_profile,
    reference_simulate,
    rounding_ramp,
)
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


def _assert_rows_exact(rows):
    """A ``simulate`` loop equals the reference on every row, first on the
    terms the rows' objects bring (fresh, kept or a stale entry), then on
    the terms that loop kept."""
    reference = [reference_simulate(*row) for row in rows]
    for _ in range(2):
        for row, want in zip(rows, reference):
            assert simulate(*row) == want, row[1].name


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


def test_phase_counts_fold_in_phase_order():
    """Rows of one-, two- and many-phase workloads, each folding its
    phases in order from 0.0."""
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
    """``simulate`` keeps a profile's phase terms per spec object in
    ``profile.cost_terms``; another spec of the same name, a copied
    profile and an entry under a reused id are all costed afresh, and the
    kept terms never show in the profile's ``==``, ``hash`` or ``repr``."""
    rng = np.random.default_rng(29)
    profile = make_profile()
    before = (hash(profile), repr(profile))
    spec = get_accelerator("xeonphi7120p")
    bigger = replace(spec, cache_mb=spec.cache_mb * 8)
    config = _continuous_config(spec, rng)
    assert reference_simulate(profile, bigger, config) != reference_simulate(
        profile, spec, config
    )
    _assert_rows_exact([(profile, spec, config)])
    _assert_rows_exact([(profile, spec, config), (profile, bigger, config)])
    twin = copy.deepcopy(profile)
    _assert_rows_exact([(twin, spec, config), (twin, bigger, config)])
    # An entry left under an id that now names another spec object.
    stale = replace(profile)
    _assert_rows_exact([(stale, bigger, config)])
    stale.cost_terms[id(spec)] = stale.cost_terms.pop(id(bigger))
    _assert_rows_exact([(stale, spec, config)])

    assert (hash(profile), repr(profile)) == before
    assert profile == twin == stale
    assert not replace(profile).cost_terms


def test_kept_config_terms_follow_the_spec_object():
    """``simulate`` keeps a config's clamped form and ``_config_row`` per
    spec object in ``config.cost_terms``; a same-named spec with a lower
    ceiling, a copied config and an entry under a reused id are all
    costed afresh, and the kept terms never show in the config's ``==``,
    ``hash`` or ``repr``."""
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
    _assert_rows_exact([(profile, spec, config)])
    _assert_rows_exact([(profile, spec, config), (profile, lower, config)])
    twin = copy.deepcopy(config)
    _assert_rows_exact([(profile, spec, twin), (profile, lower, twin)])
    # An entry left under an id that now names another spec object.
    stale = replace(config)
    _assert_rows_exact([(profile, lower, stale)])
    stale.cost_terms[id(spec)] = stale.cost_terms.pop(id(lower))
    _assert_rows_exact([(profile, spec, stale)])

    assert (hash(config), repr(config)) == before
    assert config == twin == stale
    assert not replace(config).cost_terms


def test_simulate_again_takes_no_term(monkeypatch):
    """A second ``simulate`` of the very same profile, spec and config
    objects builds no phase, deploy or config term and clamps nothing,
    and equals the first; a first ``simulate`` of a fresh profile builds
    its terms but no row matrix."""
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

    for name in ("_row", "_deploy_row", "_config_row", "clamp_config", "_matrix"):
        monkeypatch.setattr(batch_module, name, counting(name))
    assert [simulate(*row) for row in rows] == first
    assert calls == []
    # The counters see a copy that keeps nothing.
    simulate(replace(profile), *rows[0][1:])
    assert {"_row", "_deploy_row"} <= set(calls)
    assert "_matrix" not in calls


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
    assert all(simulate(*row).cost.streaming_s > 0 for row in rows)


def test_square_root_rounding_inputs():
    """Bandwidth-ramp ratios on which a correctly rounded square root
    differs from libm's ``pow(x, 0.5)``, the reference's ``x ** 0.5``
    (``rounding_ramp``, which the ``fleet`` fuzz component also draws).
    They are about 0.09% of inputs, so random thread counts rarely reach
    one; ``simulate`` and the lattice pass (which takes the root once per
    distinct thread count) must round them as the reference does."""
    rng = np.random.default_rng(37)
    rows = [rounding_ramp(spec, rng) for spec in FLEET8 for _ in range(6)]
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


def test_single_row_input():
    rng = np.random.default_rng(19)
    spec = FLEET8[0]
    _assert_rows_exact([(make_profile(), spec, _continuous_config(spec, rng))])


# -- the decision layer ----------------------------------------------------


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
    """Twenty distinct real workloads."""
    pairs = [
        (benchmark, dataset)
        for benchmark in ("pagerank", "bfs", "sssp_bf", "connected_components")
        for dataset in ("facebook", "cage14", "usa-cal", "livejournal", "twitter")
    ]
    return [prepare_workload(b, d) for b, d in pairs]


def test_a_batch_decides_as_its_workloads_do_alone(fleet_map, workloads, monkeypatch):
    """One-workload ``decide`` calls, a whole ``decide_batch`` of the same
    workloads and a batch of their ``replace`` copies decide alike.  The
    copies keep no decision parts, so each of their (workload × device)
    rows is costed by one ``simulate`` call."""
    decisions = fleet_map.decisions
    alone = [decisions.decide(workload) for workload in workloads]
    whole = decisions.decide_batch(workloads)
    counts = count_costing(monkeypatch)
    copies = decisions.decide_batch([replace(w) for w in workloads])
    assert counts == {"simulate": len(workloads) * len(fleet_map.fleet)}
    for a, b, c in zip(alone, whole, copies):
        _same_decision(a, b)
        _same_decision(a, c, same_workload=False)


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

"""Differential oracle: the cost model's evaluations vs the per-phase
reference.

:func:`reference_simulate` costs a deployment with the per-phase model
(:func:`~repro.accel.cost_model.evaluate_cost` and
:func:`~repro.accel.energy.evaluate_energy`), which no serving path runs.
Both evaluations of the model's one formula, :func:`repro.accel.batch._pass`
(``simulate`` and ``batch_evaluate``), must equal it, and every change
to the formula leans on this oracle.  :func:`rounding_ramp` builds a
deployment on one of the rare inputs where a correctly rounded square
root differs from the reference's, for the row tests and the ``fleet``
component.  A fuzz case draws a randomized workload profile, an
accelerator spec, and a randomized set of M configurations
(deliberately sampled *off* the tuning lattice as well as on it, so the
ceiling-rule clamping is exercised), then asserts

* ``batch_evaluate`` equals the reference exactly (``==``) on every
  configuration, field for field of the materialized result (each
  phase's components, the totals and the energy), and
* the batch argmin (used by :mod:`repro.tuning.exhaustive`) is the
  configuration a brute-force scan of the reference picks, for a
  randomly chosen objective metric.

Mismatches raise :class:`OracleMismatchError` naming the profile seed,
spec, config index, and the offending quantity.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.accel.batch import ConfigTable, SimulationResult, batch_evaluate
from repro.accel.cost_model import evaluate_cost
from repro.accel.energy import evaluate_energy
from repro.errors import OracleMismatchError
from repro.machine.mvars import (
    MachineConfig,
    OmpSchedule,
    clamp_config,
    default_config,
    total_threads,
)
from repro.machine.space import iter_configs
from repro.machine.specs import ACCELERATORS, AcceleratorSpec
from repro.tuning.exhaustive import best_on_accelerator
from repro.workload.phases import PhaseKind
from repro.workload.profile import PhaseProfile, WorkloadProfile, build_profile
from repro.workload.synthetic import generate_samples

__all__ = [
    "reference_simulate",
    "random_config",
    "random_config_table",
    "random_profile",
    "rounding_ramp",
    "check_batch_equivalence",
    "check_argmin_equivalence",
    "check_exhaustive_against_scalar",
    "run_oracle_case",
]

_METRICS = ("time", "energy", "edp")
_SCHEDULE_CHOICES = tuple(OmpSchedule)


def reference_simulate(
    profile: WorkloadProfile, spec: AcceleratorSpec, config: MachineConfig
) -> SimulationResult:
    """``profile`` on ``spec`` under ``config``, costed by the per-phase
    model: the ceiling rule, then
    :func:`~repro.accel.cost_model.evaluate_cost` and
    :func:`~repro.accel.energy.evaluate_energy`.

    Every evaluation of the cost model must equal it by ``==``.  It keeps
    nothing, so each call costs every term afresh.
    """
    config = clamp_config(config, spec)
    cost = evaluate_cost(profile, spec, config)
    energy = evaluate_energy(cost, spec, config)
    return SimulationResult(
        accelerator=spec.name, config=config, cost=cost, energy=energy
    )


def random_profile(rng: np.random.Generator) -> WorkloadProfile:
    """One randomized workload profile from the synthetic-training sampler.

    Scale factors are drawn too, so profiles cover both the proxy-sized
    and paper-sized (streaming-triggering) regimes.
    """
    sample = generate_samples(1, seed=int(rng.integers(0, 2**31)))[0]
    graph = sample.graph
    scale = float(rng.choice([1.0, 1.0, 8.0, 128.0]))
    return build_profile(
        sample.trace,
        sample.bvars,
        target_vertices=graph.num_vertices * scale,
        target_edges=graph.num_edges * scale,
        source_vertices=graph.num_vertices,
        source_edges=graph.num_edges,
        work_iteration_scale=float(rng.choice([0.5, 1.0, 1.0, 4.0])),
        overhead_iteration_scale=float(rng.choice([0.5, 1.0, 1.0, 4.0])),
    )


def random_config(spec: AcceleratorSpec, rng: np.random.Generator) -> MachineConfig:
    """A randomized M configuration, intentionally allowed to exceed the
    spec's maxima so the ceiling rule (clamping) is part of the contract."""
    return MachineConfig(
        accelerator=spec.name,
        cores=int(rng.integers(1, 2 * spec.cores + 1)),
        threads_per_core=int(rng.integers(1, 9)),
        blocktime_ms=float(rng.uniform(1.0, 1000.0)),
        placement_core=float(rng.uniform(0.0, 1.0)),
        placement_thread=float(rng.uniform(0.0, 1.0)),
        placement_offset=float(rng.uniform(0.0, 1.0)),
        affinity=float(rng.uniform(0.0, 1.0)),
        simd_width=int(rng.choice([1, 2, 4, 8, 16, 32])),
        omp_schedule=_SCHEDULE_CHOICES[int(rng.integers(0, len(_SCHEDULE_CHOICES)))],
        omp_chunk=int(rng.choice([1, 8, 64, 512])),
        gpu_global_threads=int(rng.integers(1, 2 * spec.max_threads + 1)),
        gpu_local_threads=int(rng.choice([1, 32, 64, 128, 256, 512, 1024, 2048])),
    )


def random_config_table(
    spec: AcceleratorSpec, rng: np.random.Generator, num_configs: int = 24
) -> ConfigTable:
    """A randomized :class:`ConfigTable` mixing lattice and off-lattice
    points (the lattice rows keep the tuning path honest; the random rows
    cover the rest of the M space)."""
    lattice = list(iter_configs(spec))
    picks = rng.integers(0, len(lattice), size=max(1, num_configs // 2))
    configs = [lattice[int(i)] for i in picks]
    configs += [
        random_config(spec, rng) for _ in range(max(1, num_configs - len(configs)))
    ]
    return ConfigTable.from_configs(spec, configs)


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


def rounding_ramp(
    spec: AcceleratorSpec, rng: np.random.Generator
) -> tuple[WorkloadProfile, AcceleratorSpec, MachineConfig]:
    """A deployment on ``spec`` whose bandwidth-ramp ratio (useful threads
    over saturation) is one on which a correctly rounded square root
    (``math.sqrt``, ``np.sqrt``) differs from libm's ``pow(x, 0.5)``, the
    reference's ``x ** 0.5``.

    About 0.09% of ratios are, so random thread counts rarely reach one:
    useful threads are drawn until they land on one, and become a
    one-phase profile's parallelism under the spec's default config.
    """
    config = default_config(spec)
    if spec.is_gpu:
        saturation = spec.cores * min(spec.latency_hiding, 2.0)
    else:
        saturation = spec.cores * 0.5
    top = min(saturation, float(total_threads(config, spec)))
    while True:
        useful = top * rng.uniform(0.01, 1.0)
        ratio = useful / saturation
        if useful >= 1.0 and math.sqrt(ratio) != ratio ** 0.5:
            return _ramp_profile(useful), spec, config


def check_batch_equivalence(
    profile: WorkloadProfile, spec: AcceleratorSpec, table: ConfigTable
) -> None:
    """Assert batch == reference, exactly, for every config in ``table``:
    each materialized result equals the reference field for field.

    Raises:
        OracleMismatchError: naming the first field that differs.
    """
    result = batch_evaluate(profile, spec, table)
    for index, config in enumerate(result.configs):
        got = result.materialize(index)
        want = reference_simulate(profile, spec, config)
        if got != want:
            field, batch_value, scalar_value = _first_difference(got, want)
            raise OracleMismatchError(
                f"batch/scalar divergence on {spec.name} config #{index}: "
                f"{field} batch={batch_value!r} scalar={scalar_value!r}"
            )


def _first_difference(
    got, want, path: str = "result"
) -> tuple[str, object, object]:
    """The path of the first compared field where ``got`` and ``want``
    differ, with both values there; dataclasses and tuples are walked in
    field order."""
    if dataclasses.is_dataclass(want) and type(got) is type(want):
        names = [f.name for f in dataclasses.fields(want) if f.compare]
        children = [(f"{path}.{n}", getattr(got, n), getattr(want, n)) for n in names]
    elif isinstance(want, tuple) and isinstance(got, tuple) and len(got) == len(want):
        children = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(got, want))]
    else:
        return path, got, want
    for child, a, b in children:
        if a != b:
            return _first_difference(a, b, child)
    return path, got, want


def _scalar_argmin(
    profile: WorkloadProfile,
    spec: AcceleratorSpec,
    configs: tuple[MachineConfig, ...],
    metric: str,
) -> tuple[int, SimulationResult]:
    """Brute-force scan of the reference: first strict minimum, in table
    order."""
    best_index = 0
    best: SimulationResult | None = None
    for index, config in enumerate(configs):
        candidate = reference_simulate(profile, spec, config)
        if best is None or candidate.objective(metric) < best.objective(metric):
            best_index, best = index, candidate
    assert best is not None  # ConfigTable guarantees >= 1 config
    return best_index, best


def check_argmin_equivalence(
    profile: WorkloadProfile,
    spec: AcceleratorSpec,
    table: ConfigTable,
    metric: str,
) -> None:
    """Assert the batch argmin is the brute-force reference scan's pick.

    Raises:
        OracleMismatchError: when the two pick different configs.
    """
    result = batch_evaluate(profile, spec, table)
    batch_index = result.argbest(metric)
    scalar_index, _ = _scalar_argmin(profile, spec, table.configs, metric)
    if batch_index != scalar_index:
        raise OracleMismatchError(
            f"argmin divergence on {spec.name} metric {metric!r}: batch picks "
            f"config #{batch_index}, brute-force scalar scan #{scalar_index}"
        )


def check_exhaustive_against_scalar(
    profile: WorkloadProfile,
    spec: AcceleratorSpec,
    metric: str = "time",
) -> None:
    """Cross-check :func:`repro.tuning.exhaustive.best_on_accelerator`
    against a full reference sweep of the spec's lattice.

    Raises:
        OracleMismatchError: when the tuning-layer optimum differs from
            the scalar brute force.
    """
    tuned = best_on_accelerator(profile, spec, metric=metric)
    _, scalar_best = _scalar_argmin(
        profile, spec, tuple(iter_configs(spec)), metric
    )
    if tuned != scalar_best:
        raise OracleMismatchError(
            f"tuning.exhaustive optimum on {spec.name} ({metric}) = "
            f"{tuned.objective(metric)!r} differs from scalar brute force "
            f"{scalar_best.objective(metric)!r}"
        )


def run_oracle_case(seed: int) -> str:
    """One differential fuzz case.

    Draws (profile, spec, config table, metric), then runs the batch
    equivalence and argmin cross-checks; GPU specs (whose lattices are
    small) additionally cross-check the tuning layer's full-lattice
    optimum against a brute-force reference sweep.

    Raises:
        OracleMismatchError: on any batch/reference divergence.
    """
    rng = np.random.default_rng(seed)
    profile = random_profile(rng)
    names = sorted(ACCELERATORS)
    spec = ACCELERATORS[names[int(rng.integers(0, len(names)))]]
    table = random_config_table(spec, rng)
    metric = _METRICS[int(rng.integers(0, len(_METRICS)))]
    check_batch_equivalence(profile, spec, table)
    check_argmin_equivalence(profile, spec, table, metric)
    if spec.is_gpu:
        check_exhaustive_against_scalar(profile, spec, metric)
    return (
        f"{profile.benchmark} on {spec.name}: {len(table)} configs, "
        f"metric={metric}"
    )

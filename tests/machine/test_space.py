"""Tests for the M-choice lattice."""

from __future__ import annotations

import pytest

from repro.machine.mvars import MachineConfig
from repro.machine.space import (
    gpu_lattice,
    iter_configs,
    multicore_lattice,
    thread_sweep_configs,
)
from repro.machine.specs import get_accelerator


class TestLattices:
    def test_gpu_lattice_nonempty(self):
        configs = list(gpu_lattice(get_accelerator("gtx750ti")))
        assert len(configs) > 10

    def test_multicore_lattice_nonempty(self):
        configs = list(multicore_lattice(get_accelerator("xeonphi7120p")))
        assert len(configs) > 100

    def test_no_duplicates_gpu(self):
        spec = get_accelerator("gtx750ti")
        keys = [
            (c.gpu_global_threads, c.gpu_local_threads)
            for c in gpu_lattice(spec)
        ]
        assert len(keys) == len(set(keys))

    def test_no_duplicates_multicore(self):
        spec = get_accelerator("xeonphi7120p")
        keys = [
            (
                c.cores, c.threads_per_core, c.simd_width, c.omp_schedule,
                c.placement_core, c.affinity, c.blocktime_ms,
            )
            for c in multicore_lattice(spec)
        ]
        assert len(keys) == len(set(keys))

    def test_lattice_respects_machine_limits(self):
        spec = get_accelerator("cpu40core")
        for config in multicore_lattice(spec):
            assert config.cores <= spec.cores
            assert config.threads_per_core <= spec.threads_per_core
            assert config.simd_width <= spec.simd_width

    def test_gpu_local_never_exceeds_global(self):
        spec = get_accelerator("gtx970")
        for config in gpu_lattice(spec):
            assert config.gpu_local_threads <= config.gpu_global_threads

    def test_iter_configs_dispatch(self):
        gpu = get_accelerator("gtx750ti")
        phi = get_accelerator("xeonphi7120p")
        assert all(c.accelerator == gpu.name for c in iter_configs(gpu))
        assert all(c.accelerator == phi.name for c in iter_configs(phi))

    def test_cpu_lattice_smaller_than_phi(self):
        # Fewer hardware threads and narrower SIMD shrink the space.
        cpu, phi = (
            len(list(iter_configs(get_accelerator(name))))
            for name in ("cpu40core", "xeonphi7120p")
        )
        assert cpu < phi


class TestThreadSweep:
    def test_fractions_ascending(self):
        spec = get_accelerator("xeonphi7120p")
        points = thread_sweep_configs(spec, 8)
        fractions = [f for f, _ in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_gpu_threads_ascend(self):
        spec = get_accelerator("gtx750ti")
        threads = [c.gpu_global_threads for _, c in thread_sweep_configs(spec, 8)]
        assert threads == sorted(threads)
        assert threads[-1] == spec.max_threads

    def test_multicore_max_point_full_chip(self):
        spec = get_accelerator("xeonphi7120p")
        _, config = thread_sweep_configs(spec, 8)[-1]
        assert config.cores == spec.cores
        assert config.threads_per_core == spec.threads_per_core

    def test_points_are_valid_configs(self):
        spec = get_accelerator("gtx970")
        for _, config in thread_sweep_configs(spec, 12):
            assert isinstance(config, MachineConfig)

    def test_num_points_respected(self):
        spec = get_accelerator("gtx750ti")
        assert len(thread_sweep_configs(spec, 5)) == 5

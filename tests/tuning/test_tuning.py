"""Tests for exhaustive sweep and hill-climb tuning."""

from __future__ import annotations

import pytest

from repro.machine.specs import get_accelerator
from repro.tuning.exhaustive import best_on_accelerator, best_on_pair, sweep
from repro.tuning.search import hill_climb

from tests.accel.test_cost_model import make_profile

GPU = get_accelerator("gtx750ti")
PHI = get_accelerator("xeonphi7120p")


class TestExhaustive:
    def test_sweep_covers_lattice(self):
        from repro.machine.space import iter_configs

        results = sweep(make_profile(), GPU)
        assert len(results) == len(list(iter_configs(GPU)))

    def test_best_is_minimum_of_sweep(self):
        profile = make_profile()
        results = sweep(profile, GPU)
        best = best_on_accelerator(profile, GPU)
        assert best.time_s == min(r.time_s for r in results)

    def test_best_on_pair_picks_winner(self):
        profile = make_profile()
        pair_best = best_on_pair(profile, (GPU, PHI))
        gpu_best = best_on_accelerator(profile, GPU)
        phi_best = best_on_accelerator(profile, PHI)
        assert pair_best.time_s == min(gpu_best.time_s, phi_best.time_s)

    def test_energy_objective_changes_choice_criterion(self):
        profile = make_profile()
        time_best = best_on_accelerator(profile, PHI, metric="time")
        energy_best = best_on_accelerator(profile, PHI, metric="energy")
        assert energy_best.energy_j <= time_best.energy_j

    def test_deterministic(self):
        profile = make_profile()
        a = best_on_accelerator(profile, PHI)
        b = best_on_accelerator(profile, PHI)
        assert a.time_s == b.time_s
        assert a.config == b.config


class TestHillClimb:
    def test_never_worse_than_median(self):
        profile = make_profile()
        results = sweep(profile, PHI)
        times = sorted(r.time_s for r in results)
        climbed = hill_climb(profile, PHI, restarts=4, seed=0)
        assert climbed.time_s <= times[len(times) // 2]

    def test_close_to_exhaustive_optimum(self):
        profile = make_profile()
        exact = best_on_accelerator(profile, PHI)
        climbed = hill_climb(profile, PHI, restarts=6, max_steps=60, seed=1)
        assert climbed.time_s <= exact.time_s * 1.5

    def test_deterministic_for_seed(self):
        profile = make_profile()
        a = hill_climb(profile, GPU, seed=3)
        b = hill_climb(profile, GPU, seed=3)
        assert a.time_s == b.time_s

    def test_single_restart_works(self):
        profile = make_profile()
        result = hill_climb(profile, GPU, restarts=1, max_steps=5, seed=0)
        assert result.time_s > 0

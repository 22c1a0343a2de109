"""Tests for the fleet fuzz component (differential row oracle)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.accel.batch as batch_module
from repro.accel.simulator import simulate
from repro.core.encoding import NUM_TARGETS
from repro.errors import OracleMismatchError
from repro.machine.fleet import Fleet, synthetic_fleet
from repro.machine.specs import DEFAULT_PAIR
from repro.validation.fleet import (
    MAX_FLEET_SIZE,
    check_decode_agreement,
    check_fleet_rows,
    check_permutation_identity,
    random_fleet,
    run_fleet_case,
)
from repro.validation.oracle import random_config, random_profile, reference_simulate


class TestRandomFleet:
    def test_sizes_stay_in_band_and_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            fleet = random_fleet(rng)
            assert 2 <= len(fleet) <= MAX_FLEET_SIZE
            assert fleet.gpus and fleet.multicores

    def test_deterministic_per_seed(self):
        a = random_fleet(np.random.default_rng(11))
        b = random_fleet(np.random.default_rng(11))
        assert a.names == b.names


class TestFleetEvaluate:
    """A fleet's rows are costed by ``simulate``, one row at a time, and
    ``check_fleet_rows`` compares that loop with the reference."""

    def test_matches_scalar_in_input_order(self):
        rng = np.random.default_rng(7)
        profile = random_profile(rng)
        fleet = synthetic_fleet(4)
        rows = [
            (profile, spec, random_config(spec, rng)) for spec in fleet.devices
        ]
        for row in rows:
            result = simulate(*row)
            assert result.accelerator == row[1].name
            assert result == reference_simulate(*row)

    def test_groups_duplicate_specs_into_one_pass(self):
        """Rows that repeat one spec share the profile's one kept entry."""
        rng = np.random.default_rng(9)
        profile = random_profile(rng)
        spec = synthetic_fleet(2).devices[0]
        rows = [(profile, spec, random_config(spec, rng)) for _ in range(5)]
        check_fleet_rows(rows)
        assert list(profile.cost_terms) == [id(spec)]

    def test_empty_deployments(self):
        check_fleet_rows([])


class TestDifferentialArgmin:
    """One workload's candidate deployments on every device of a fleet,
    costed by a ``simulate`` loop and by the reference (``check_fleet_rows``)."""

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_sizes_two_through_six(self, size):
        rng = np.random.default_rng(100 + size)
        profile = random_profile(rng)
        fleet = synthetic_fleet(size)
        check_fleet_rows(
            [
                (profile, spec, random_config(spec, rng))
                for spec in fleet.devices
                for _ in range(2)
            ]
        )

    def test_detects_injected_model_drift(self, monkeypatch):
        # Nudging a batch-path constant must trip the oracle, proving the
        # check actually compares against the scalar reference.
        monkeypatch.setattr(
            batch_module, "_GRAIN_ITEMS", batch_module._GRAIN_ITEMS * 1.01
        )
        rng = np.random.default_rng(5)
        tripped = False
        for _ in range(25):
            profile = random_profile(rng)
            fleet = random_fleet(rng)
            rows = [
                (profile, spec, random_config(spec, rng)) for spec in fleet.devices
            ]
            try:
                check_fleet_rows(rows)
            except OracleMismatchError:
                tripped = True
                break
        assert tripped


class TestDecodeAgreement:
    def test_random_vectors_agree(self):
        rng = np.random.default_rng(21)
        vectors = rng.uniform(0.0, 1.0, size=(16, NUM_TARGETS))
        check_decode_agreement(vectors, Fleet.from_names(DEFAULT_PAIR))

    def test_m1_boundary_rows_agree(self):
        # Rows pinned at the 0.5 decision boundary and the extremes.
        vectors = np.full((4, NUM_TARGETS), 0.5)
        vectors[1, 0] = 0.0
        vectors[2, 0] = 1.0
        vectors[3] = 0.0
        check_decode_agreement(vectors, synthetic_fleet(4))


class TestRunFleetCase:
    def test_seeded_replay_is_deterministic(self):
        assert run_fleet_case(42) == run_fleet_case(42)

    def test_many_seeds_pass(self):
        for seed in range(10):
            description = run_fleet_case(seed)
            assert "fleet" in description

    def test_permutation_identity_check_runs(self):
        rng = np.random.default_rng(33)
        check_permutation_identity(synthetic_fleet(6), rng)

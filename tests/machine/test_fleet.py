"""Tests for the Fleet abstraction (validation, identity, synthesis)."""

from __future__ import annotations

import pytest

from repro.errors import UnknownAcceleratorError
from repro.machine.fleet import (
    DEFAULT_FLEET_BASES,
    Fleet,
    spec_fingerprint,
    synthetic_fleet,
)
from repro.machine.specs import DEFAULT_PAIR, get_accelerator, with_memory_gb


class TestConstruction:
    def test_from_names_accepts_specs_and_strings(self):
        fleet = Fleet.from_names(["gtx750ti", get_accelerator("cpu40core")])
        assert fleet.names == ("gtx750ti", "cpu40core")

    def test_single_device_rejected(self):
        with pytest.raises(UnknownAcceleratorError, match="at least two"):
            Fleet.from_names(["gtx750ti"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(UnknownAcceleratorError, match="unique"):
            Fleet.from_names(["gtx750ti", "gtx750ti"])

    def test_missing_kind_rejected(self):
        with pytest.raises(UnknownAcceleratorError, match="M1"):
            Fleet.from_names(["gtx750ti", "gtx970"])
        with pytest.raises(UnknownAcceleratorError, match="M1"):
            Fleet.from_names(["xeonphi7120p", "cpu40core"])

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownAcceleratorError):
            Fleet.from_names(["gtx750ti", "not-a-device"])


class TestStructure:
    @pytest.fixture(scope="class")
    def fleet(self):
        return Fleet.from_names(
            ["cpu40core", "gtx970", "xeonphi7120p", "gtx750ti"]
        )

    def test_kinds_partition_in_fleet_order(self, fleet):
        assert [s.name for s in fleet.gpus] == ["gtx970", "gtx750ti"]
        assert [s.name for s in fleet.multicores] == ["cpu40core", "xeonphi7120p"]

    def test_primaries_are_name_sorted_not_positional(self, fleet):
        # gtx970 comes first positionally, but gtx750ti sorts first.
        assert fleet.primary_gpu.name == "gtx750ti"
        assert fleet.primary_multicore.name == "cpu40core"

    def test_lookup_and_index(self, fleet):
        assert fleet.device("gtx970").name == "gtx970"
        assert fleet.device("xeonphi7120p") is fleet.devices[2]
        with pytest.raises(KeyError):
            fleet.device("absent")

    def test_iteration_order(self, fleet):
        assert [s.name for s in fleet] == list(fleet.names)


class TestFingerprint:
    def test_order_independent(self):
        a = Fleet.from_names(["gtx750ti", "xeonphi7120p", "gtx970"])
        b = Fleet.from_names(["gtx970", "gtx750ti", "xeonphi7120p"])
        assert a.fingerprint == b.fingerprint

    def test_different_devices_differ(self):
        a = Fleet.from_names(DEFAULT_PAIR)
        b = Fleet.from_names(["gtx970", "xeonphi7120p"])
        assert a.fingerprint != b.fingerprint

    def test_spec_field_change_changes_fingerprint(self):
        base = get_accelerator("gtx750ti")
        resized = with_memory_gb(base, base.mem_gb / 2)
        assert spec_fingerprint(base) != spec_fingerprint(resized)
        a = Fleet((base, get_accelerator("xeonphi7120p")))
        b = Fleet((resized, get_accelerator("xeonphi7120p")))
        assert a.fingerprint != b.fingerprint


class TestSyntheticFleet:
    def test_first_pass_is_the_registry(self):
        fleet = synthetic_fleet(4)
        assert fleet.names == DEFAULT_FLEET_BASES

    def test_later_generations_are_derated_clones(self):
        fleet = synthetic_fleet(6)
        base = fleet.device("gtx750ti")
        clone = fleet.device("gtx750ti-g2")
        assert clone.is_gpu == base.is_gpu
        assert clone.clock_ghz < base.clock_ghz
        assert clone.mem_bw_gbps < base.mem_bw_gbps
        assert clone.cores == base.cores  # architecture is unchanged

    def test_deterministic(self):
        assert synthetic_fleet(8).fingerprint == synthetic_fleet(8).fingerprint
        assert synthetic_fleet(8).names == synthetic_fleet(8).names

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="at least two"):
            synthetic_fleet(1)

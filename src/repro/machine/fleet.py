"""Heterogeneous device fleets: N accelerators behind one decision layer.

The paper's framing is "heterogeneous multi-accelerators", but the M1
inter-accelerator call is binary: GPU vs cache-coherent multicore.
:class:`Fleet` reconciles the two — an ordered set of any number of
:class:`~repro.machine.specs.AcceleratorSpec`\\ s (several GPU
generations, big/little multicores) with at least one device of each M1
kind, so the predictor's binary call still picks a *kind* and the cost
model's per-device estimates pick the concrete device within it.

Two fleet-level identities matter to the runtime:

* **primaries** — the reference GPU and multicore the predictor's knob
  normalization (and the feature-pure serving tier) anchor on.  They are
  chosen by sorted device name, *not* list position, so every decision
  derived from a fleet is invariant under permutation of its device list
  (a property pinned by the fleet test suite).
* **fingerprint** — a stable content hash over the (sorted) device
  specs.  The serving layer folds it into every
  :class:`~repro.runtime.serving.DecisionCache` key, so a cache shared
  across two differently configured fleets can never leak a placement
  from one into the other.

:func:`synthetic_fleet` builds deterministic N-device fleets from the
four modelled machines plus derated "previous generation" variants —
the fleets the scaling bench and the property suite exercise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

from repro.errors import UnknownAcceleratorError
from repro.machine.specs import AcceleratorSpec, get_accelerator

__all__ = ["DEFAULT_FLEET_BASES", "Fleet", "spec_fingerprint", "synthetic_fleet"]

#: Registry names the synthetic fleets cycle through, strongest-coverage
#: first: the Table II pair, then the Section VI-A upgrades.
DEFAULT_FLEET_BASES = ("gtx750ti", "xeonphi7120p", "gtx970", "cpu40core")

#: Fields derated for each synthetic "previous generation" device.
_DERATED_FIELDS = (
    "clock_ghz",
    "mem_bw_gbps",
    "sp_tflops",
    "dp_tflops",
    "stream_bw_gbps",
)


def spec_fingerprint(spec: AcceleratorSpec) -> str:
    """Stable content hash of one accelerator spec (all model fields)."""
    parts = []
    for field in fields(AcceleratorSpec):
        value = getattr(spec, field.name)
        parts.append(f"{field.name}={getattr(value, 'value', value)!r}")
    digest = hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class Fleet:
    """An ordered, validated set of accelerators sharing one runtime.

    ``devices`` keeps caller order — it is the order device queues,
    estimate vectors, and :class:`~repro.runtime.engine.contracts.
    FleetReport` device rows are presented in.  Everything *semantic*
    (primaries, fingerprint, decisions) is order-independent.

    Raises:
        UnknownAcceleratorError: for fewer than two devices, duplicate
            device names, or a fleet missing either M1 kind.
    """

    devices: tuple[AcceleratorSpec, ...]

    def __post_init__(self) -> None:
        devices = tuple(self.devices)
        object.__setattr__(self, "devices", devices)
        names = [spec.name for spec in devices]
        if len(devices) < 2:
            raise UnknownAcceleratorError(
                f"a fleet needs at least two devices, got {names}"
            )
        if len(set(names)) != len(names):
            raise UnknownAcceleratorError(
                f"fleet device names must be unique, got {names}"
            )
        if not any(spec.is_gpu for spec in devices) or not any(
            not spec.is_gpu for spec in devices
        ):
            raise UnknownAcceleratorError(
                "a fleet must contain at least one GPU and at least one "
                f"multicore (the M1 dichotomy), got {names}"
            )

    @classmethod
    def from_names(
        cls, names: Iterable[Union[str, AcceleratorSpec]]
    ) -> "Fleet":
        """Build a fleet from registry names (specs pass through as-is).

        Raises:
            UnknownAcceleratorError: for unregistered names or an
                invalid composition.
        """
        devices = tuple(
            item if isinstance(item, AcceleratorSpec) else get_accelerator(item)
            for item in names
        )
        return cls(devices)

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[AcceleratorSpec]:
        return iter(self.devices)

    @property
    def names(self) -> tuple[str, ...]:
        """Device names, fleet order."""
        return tuple(spec.name for spec in self.devices)

    @property
    def gpus(self) -> tuple[AcceleratorSpec, ...]:
        """The GPU devices, fleet order."""
        return tuple(spec for spec in self.devices if spec.is_gpu)

    @property
    def multicores(self) -> tuple[AcceleratorSpec, ...]:
        """The multicore devices, fleet order."""
        return tuple(spec for spec in self.devices if not spec.is_gpu)

    @property
    def primary_gpu(self) -> AcceleratorSpec:
        """The reference GPU: first by sorted name, so permutation of the
        device list never changes it."""
        return min(self.gpus, key=lambda spec: spec.name)

    @property
    def primary_multicore(self) -> AcceleratorSpec:
        """The reference multicore, permutation-invariant like the GPU."""
        return min(self.multicores, key=lambda spec: spec.name)

    def device(self, name: str) -> AcceleratorSpec:
        """Look up one device by name.

        Raises:
            KeyError: for a name outside the fleet.
        """
        for spec in self.devices:
            if spec.name == name:
                return spec
        raise KeyError(f"no device {name!r} in fleet {list(self.names)}")

    # -- identity ----------------------------------------------------------

    @cached_property
    def fingerprint(self) -> str:
        """Order-independent content hash of the device set.

        Two fleets with the same devices (any order) share a fingerprint;
        any change to any spec field produces a different one.  This is
        the namespace the decision cache keys carry.
        """
        parts = sorted(
            f"{spec.name}:{spec_fingerprint(spec)}" for spec in self.devices
        )
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


def _derated(spec: AcceleratorSpec, generation: int) -> AcceleratorSpec:
    """A "previous generation" variant: same architecture, scaled-down
    clocks and bandwidths, distinct name."""
    scale = 0.8 ** (generation - 1)
    updates = {name: getattr(spec, name) * scale for name in _DERATED_FIELDS}
    return replace(spec, name=f"{spec.name}-g{generation}", **updates)


def synthetic_fleet(size: int, bases: Sequence[str] = DEFAULT_FLEET_BASES) -> Fleet:
    """A deterministic ``size``-device fleet for benches and tests.

    Cycles through ``bases`` (first pass: the real specs; later passes:
    derated generation variants with ``-g2``/``-g3``... names), so any
    size >= 2 yields a valid mixed fleet and the same size always yields
    the same fleet.

    Raises:
        UnknownAcceleratorError: for unregistered base names.
        ValueError: for sizes below 2.
    """
    if size < 2:
        raise ValueError(f"a fleet needs at least two devices, got size={size}")
    specs = [get_accelerator(name) for name in bases]
    devices = []
    for index in range(size):
        base = specs[index % len(specs)]
        generation = index // len(specs) + 1
        devices.append(base if generation == 1 else _derated(base, generation))
    return Fleet(tuple(devices))

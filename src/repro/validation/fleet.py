"""Fleet fuzz component: exact fleet costing + fleet identity properties.

The fleet runtime rests on mechanical facts this component fuzzes under
the seeded-replay contract of :mod:`repro.validation.fuzz`:

* **exact costing** — 1–64 ``(profile, spec, config)`` rows over several
  workloads on a random 2–6 device fleet, costed by
  :func:`repro.accel.batch.fleet_evaluate` and by the decision layer's
  ``estimate_rows`` (so both sides of its array-pass crossover), equal a
  scalar :func:`~repro.accel.simulator.simulate` loop; so do a second
  pass over the same objects, which reads the terms the first one kept
  per profile and per config, a third over equal copies of the configs,
  which take their config terms afresh, and one config object costed on
  every device of its kind, which keeps a clamped copy per device;
* **decode agreement** — :func:`~repro.core.encoding.decode_config_batch`,
  which decodes each kind's rows on their own, gives every row exactly
  what :func:`repro.core.encoding.decode_config_for` gives for it inside
  the whole matrix, the identity that lets the decision layer reuse a
  cached entry's config for its own device; each row decoded alone, on
  Python floats, equals its row of either batch decode on every device
  of the fleet; and every decoded config, built without ``__init__``,
  equals its validated reconstruction field for field;
* **permutation invariance** — a fleet's fingerprint and primaries never
  depend on device-list order, so neither do cache keys or decisions.

Violations raise :class:`OracleMismatchError` with the offending device
and quantity, replayable via the standard ``REPRO_FUZZ_SEED`` one-liner.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.accel.batch import Deployment, fleet_evaluate
from repro.accel.simulator import simulate
from repro.core.encoding import NUM_TARGETS, decode_config_batch, decode_config_for
from repro.errors import OracleMismatchError
from repro.machine.fleet import Fleet, synthetic_fleet
from repro.runtime.engine.decision import estimate_rows
from repro.validation.oracle import random_config, random_profile

__all__ = [
    "MAX_FLEET_SIZE",
    "MAX_ROWS",
    "random_fleet",
    "check_fleet_rows",
    "check_decode_agreement",
    "check_permutation_identity",
    "run_fleet_case",
]

_METRICS = ("time", "energy", "edp")

#: Largest fleet a fuzz case draws (the oracle satellite's 2–6 band).
MAX_FLEET_SIZE = 6

#: Largest row set a fuzz case costs.
MAX_ROWS = 64

#: Device pool the fuzzer samples fleets from: the four modelled machines
#: plus derated previous-generation variants of each.
_POOL = synthetic_fleet(8).devices


def random_fleet(
    rng: np.random.Generator, max_size: int = MAX_FLEET_SIZE
) -> Fleet:
    """A random valid fleet of size 2..``max_size``, shuffled order.

    Guarantees at least one device of each M1 kind by seeding the pick
    with one random GPU and one random multicore before filling the rest
    from the remaining pool.
    """
    size = int(rng.integers(2, max_size + 1))
    gpus = [spec for spec in _POOL if spec.is_gpu]
    multicores = [spec for spec in _POOL if not spec.is_gpu]
    picks = [
        gpus[int(rng.integers(0, len(gpus)))],
        multicores[int(rng.integers(0, len(multicores)))],
    ]
    rest = [spec for spec in _POOL if spec.name not in {p.name for p in picks}]
    extra = rng.permutation(len(rest))[: max(0, size - 2)]
    picks.extend(rest[int(i)] for i in extra)
    order = rng.permutation(len(picks))
    return Fleet(tuple(picks[int(i)] for i in order))


def check_fleet_rows(rows: "list[Deployment]") -> None:
    """Array-path costing of ``rows`` (``fleet_evaluate`` and the decision
    layer's ``estimate_rows``) vs a scalar simulate loop, by ``==``.

    Raises:
        OracleMismatchError: on the first row whose results differ.
    """
    scalar = [simulate(*row) for row in rows]
    passes = fleet_evaluate(rows), estimate_rows(rows)
    for costed in passes:
        for index, (got, want) in enumerate(zip(costed, scalar)):
            if got != want:
                raise OracleMismatchError(
                    f"fleet/scalar divergence on {rows[index][1].name} row "
                    f"#{index} of {len(rows)}: time_s {got.time_s!r} vs "
                    f"{want.time_s!r}"
                )


def check_decode_agreement(vectors: np.ndarray, fleet: Fleet) -> None:
    """Decoding a kind's rows on their own must equal decoding each row
    inside the whole matrix.

    :func:`decode_config_batch` anchored on the fleet primaries picks
    each row's device by the M1 bit and decodes only that kind's rows
    onto it; :func:`decode_config_for` of the same device over the whole
    matrix must give each row the *exact same* configuration (no
    tolerance — the decision layer reuses the first for the entry's own
    device and takes the second for every other device).  A one-row
    matrix takes each decoder's Python-float form, so every row decoded
    alone must give the same fields, of the same types, as its row of the
    batch decode, by both decoders and on every device of ``fleet``.  The
    decoders build configs without ``__init__``, so each one must also
    equal its validated reconstruction (:func:`dataclasses.replace`)
    field for field.

    Raises:
        OracleMismatchError: on any row where the two decoders disagree,
            a row decoded alone differs from its batch row, or a config
            differs from its reconstruction.
    """
    gpu, multicore = fleet.primary_gpu, fleet.primary_multicore
    paired = decode_config_batch(vectors, gpu, multicore)
    per_device = {
        spec.name: decode_config_for(vectors, spec) for spec in fleet.devices
    }
    for row, (spec, config) in enumerate(paired):
        solo = per_device[spec.name][row]
        if solo != config:
            raise OracleMismatchError(
                f"decode divergence on {spec.name} row {row}: "
                f"decode_config_for={solo!r} != decode_config_batch={config!r}"
            )
        alone_spec, alone = decode_config_batch(
            vectors[row : row + 1], gpu, multicore
        )[0]
        if alone_spec is not spec or _fields(alone) != _fields(config):
            raise OracleMismatchError(
                f"one-row decode_config_batch divergence on row {row}: "
                f"{alone_spec.name} {alone!r} != {spec.name} {config!r}"
            )
    for spec in fleet.devices:
        for row, config in enumerate(per_device[spec.name]):
            alone = decode_config_for(vectors[row : row + 1], spec)[0]
            if _fields(alone) != _fields(config):
                raise OracleMismatchError(
                    f"one-row decode_config_for divergence on {spec.name} row "
                    f"{row}: {alone!r} != {config!r}"
                )
            rebuilt = replace(config)
            if vars(config) != vars(rebuilt):
                raise OracleMismatchError(
                    f"decoded config on {spec.name} row {row} is not its "
                    f"validated reconstruction: {vars(config)} != {vars(rebuilt)}"
                )


def _fields(config) -> dict[str, tuple[type, object]]:
    """A config's fields with their types, so an ``int`` knob never equals
    a ``float`` one."""
    return {name: (type(value), value) for name, value in vars(config).items()}


def check_permutation_identity(
    fleet: Fleet, rng: np.random.Generator
) -> None:
    """Fingerprint and primaries must survive device-list permutation.

    Raises:
        OracleMismatchError: when any identity depends on list order.
    """
    order = rng.permutation(len(fleet))
    shuffled = Fleet(tuple(fleet.devices[int(i)] for i in order))
    if shuffled.fingerprint != fleet.fingerprint:
        raise OracleMismatchError(
            f"fleet fingerprint depends on device order: "
            f"{fleet.fingerprint} vs {shuffled.fingerprint} for "
            f"{fleet.names} vs {shuffled.names}"
        )
    for role in ("primary_gpu", "primary_multicore"):
        if getattr(shuffled, role).name != getattr(fleet, role).name:
            raise OracleMismatchError(
                f"{role} depends on device order for {fleet.names}"
            )


def run_fleet_case(seed: int) -> str:
    """One fleet fuzz case: exact row costing, kept terms, decode and
    identity.  It draws what earlier versions drew, the metric
    included, so a recorded ``REPRO_FUZZ_SEED`` line replays the same case.

    Raises:
        OracleMismatchError: on any violation.
    """
    rng = np.random.default_rng(seed)
    profiles = [random_profile(rng) for _ in range(int(rng.integers(1, 4)))]
    fleet = random_fleet(rng)
    metric = _METRICS[int(rng.integers(0, len(_METRICS)))]
    rows = []
    for _ in range(int(rng.integers(1, MAX_ROWS + 1))):
        spec = fleet.devices[int(rng.integers(0, len(fleet)))]
        profile = profiles[int(rng.integers(0, len(profiles)))]
        rows.append((profile, spec, random_config(spec, rng)))
    check_fleet_rows(rows)
    check_fleet_rows(rows)  # from the terms the first pass kept
    # Equal configs that are other objects take their config terms afresh.
    check_fleet_rows([(p, spec, replace(config)) for p, spec, config in rows])
    profile, spec, config = rows[0]
    same_kind = [device for device in fleet.devices if device.is_gpu == spec.is_gpu]
    check_fleet_rows([(profile, device, config) for device in same_kind])
    deployments = [
        (spec, random_config(spec, rng))
        for spec in fleet.devices
        for _ in range(int(rng.integers(1, 3)))
    ]
    check_fleet_rows([(profiles[0], spec, config) for spec, config in deployments])
    vectors = rng.uniform(0.0, 1.0, size=(5, NUM_TARGETS))
    check_decode_agreement(vectors, fleet)
    check_permutation_identity(fleet, rng)
    return (
        f"{len(rows)} rows over {len(profiles)} workloads on a "
        f"{len(fleet)}-device fleet ({len(deployments)} deployments, "
        f"metric={metric})"
    )

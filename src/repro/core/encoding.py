"""Feature and target encodings for the automated learners.

Features are the paper's 17 input neurons: B1–B13 followed by I1–I4.
Targets are a normalized 11-dimensional M vector (accelerator choice plus
the intra-accelerator knobs the lattice sweeps), so every learner — linear,
polynomial, or neural — regresses the same representation and decodes it
back to a concrete :class:`MachineConfig` by snapping to the lattice.
"""

from __future__ import annotations

import math

import numpy as np

from repro.features.bvars import BVariables
from repro.features.ivars import IVariables
from repro.machine.mvars import MachineConfig, OmpSchedule
from repro.machine.specs import AcceleratorSpec

__all__ = [
    "NUM_FEATURES",
    "NUM_TARGETS",
    "TARGET_NAMES",
    "encode_features",
    "encode_config",
    "decode_config_batch",
    "decode_config_for",
    "choice_signature",
]

NUM_FEATURES = 17
TARGET_NAMES = (
    "accel",  # 0 = GPU, 1 = multicore (M1)
    "cores_frac",  # M2 / max cores
    "tpc_frac",  # (M3 - 1) / (max tpc - 1)
    "simd_frac",  # log2(M10) / log2(max simd)
    "blocktime",  # log10(M4) / 3
    "placement",  # M5-7 looseness
    "affinity",  # M8
    "schedule",  # M11: 0 static, 0.5 dynamic, 1 guided
    "global_frac",  # M19 / max global threads
    "local_frac",  # log2(M20 / 32) / log2(1024 / 32)
    "chunk",  # log2(M12 / 16) / log2(1024 / 16)
)
NUM_TARGETS = len(TARGET_NAMES)

_SCHEDULE_TO_VALUE = {
    OmpSchedule.STATIC: 0.0,
    OmpSchedule.DYNAMIC: 0.5,
    OmpSchedule.AUTO: 0.5,
    OmpSchedule.GUIDED: 1.0,
}

# Field defaults for the decoder's configs, captured from a real instance
# so they track the dataclass definition.
_CONFIG_DEFAULTS = dict(MachineConfig(accelerator="").__dict__)

#: The config fields :func:`_knobs` fills on each kind, in its order.
_MULTICORE_FIELDS = (
    "cores",
    "threads_per_core",
    "simd_width",
    "blocktime_ms",
    "omp_chunk",
    "omp_schedule",
    "placement_core",
    "placement_thread",
    "placement_offset",
    "affinity",
)
_GPU_FIELDS = ("gpu_global_threads", "gpu_local_threads")
#: M11 by the number of its cuts, 0.25 and 0.75, that the schedule target
#: reaches.  An object array, so an array of counts indexes it as one
#: count does.
_SCHEDULES = np.array(
    [OmpSchedule.STATIC, OmpSchedule.DYNAMIC, OmpSchedule.GUIDED], dtype=object
)


def encode_features(bvars: BVariables, ivars: IVariables) -> np.ndarray:
    """17-element feature vector: B1..B13 then I1..I4."""
    return np.asarray(bvars.as_vector() + ivars.as_vector(), dtype=np.float64)


def _log_frac(value: float, low: float, high: float) -> float:
    if value <= low:
        return 0.0
    return min(1.0, math.log2(value / low) / math.log2(high / low))


def encode_config(
    config: MachineConfig,
    gpu: AcceleratorSpec,
    multicore: AcceleratorSpec,
) -> np.ndarray:
    """Normalize a concrete configuration into the target vector."""
    is_multicore = config.accelerator == multicore.name
    vector = np.zeros(NUM_TARGETS)
    vector[0] = 1.0 if is_multicore else 0.0
    vector[1] = config.cores / multicore.cores
    tpc_span = max(multicore.threads_per_core - 1, 1)
    vector[2] = (config.threads_per_core - 1) / tpc_span
    simd_span = max(math.log2(max(multicore.simd_width, 2)), 1.0)
    vector[3] = math.log2(max(config.simd_width, 1)) / simd_span
    vector[4] = math.log10(max(config.blocktime_ms, 1.0)) / 3.0
    vector[5] = config.placement_looseness
    vector[6] = config.affinity
    vector[7] = _SCHEDULE_TO_VALUE[config.omp_schedule]
    vector[8] = config.gpu_global_threads / gpu.max_threads
    vector[9] = _log_frac(config.gpu_local_threads, 32.0, 1024.0)
    vector[10] = _log_frac(config.omp_chunk, 16.0, 1024.0)
    return np.clip(vector, 0.0, 1.0)


def decode_config_batch(
    vectors: np.ndarray,
    gpu: AcceleratorSpec,
    multicore: AcceleratorSpec,
) -> list[tuple[AcceleratorSpec, MachineConfig]]:
    """Decode an ``(n, NUM_TARGETS)`` prediction matrix, each row onto
    the device its M1 bit names.

    The accelerator choice thresholds at 0.5 (the paper's default);
    continuous knobs round to their nearest machine value and are clamped
    by the ceiling rule.  Each kind's rows take one
    :func:`decode_config_for` pass (on the matrix validated once) and go
    back in row order, so each row is decoded once, onto its own kind
    only.  Row ``i`` of the result equals the one-row decode of
    ``vectors[i : i + 1]`` — the equivalence is pinned by tests, because
    the exactness of the serving cache depends on it.
    """
    vectors = _validated_matrix(vectors)
    on_multicore = vectors[:, 0] >= 0.5
    decoded: list = [None] * vectors.shape[0]
    for spec, rows in ((gpu, ~on_multicore), (multicore, on_multicore)):
        if rows.all():  # one kind, as every one-row request is
            return [(spec, config) for config in _decode_onto(vectors, spec)]
        index = np.flatnonzero(rows)
        if index.size:
            configs = _decode_onto(vectors[index], spec)
            for row, config in zip(index.tolist(), configs):
                decoded[row] = (spec, config)
    return decoded


def decode_config_for(
    vectors: np.ndarray, spec: AcceleratorSpec
) -> list[MachineConfig]:
    """Decode an ``(n, NUM_TARGETS)`` prediction matrix onto ONE device.

    The fleet generalization of :func:`decode_config_batch`: the M1
    accelerator bit is *ignored* and every row's knobs are decoded onto
    ``spec`` using its own architectural parameters.  The knob formulas
    (:func:`_knobs`: rounding, log ramps, ceiling clamps) are elementwise
    and run on the matrix's columns, or on Python floats for a one-row
    matrix, so a row decodes the same alone or inside any matrix.  For a
    device of the opposite kind to the M1 bit this is bit-identical to
    re-decoding the vector with the bit flipped (the pre-fleet runner-up
    path) — pinned by the fleet property tests, because the N=2 fleet
    must reproduce the historical pair decisions exactly.
    """
    return _decode_onto(_validated_matrix(vectors), spec)


def _decode_onto(
    vectors: np.ndarray, spec: AcceleratorSpec
) -> list[MachineConfig]:
    """:func:`decode_config_for` on an already validated matrix.

    A one-row matrix, one request's, runs :func:`_knobs` on its Python
    floats and builds its config directly; a larger one runs it on its
    columns.  Each config is built without ``__init__``: every knob is
    already clamped into its valid range by :func:`_knobs` (NaN, which
    clamping passes through, is rejected up front), so the checks could
    never fire.  The result is field-identical (``==`` and ``hash``) to a
    normally constructed instance.
    """
    if len(vectors) == 1:
        names, knobs = _knobs(vectors.tolist()[0], spec, _ONE_ROW)
        config = object.__new__(MachineConfig)
        state = vars(config)
        state.update(_CONFIG_DEFAULTS, accelerator=spec.name)
        state.update(zip(names, knobs))
        return [config]
    names, columns = _knobs(vectors.T, spec, _COLUMNS)
    base = {**_CONFIG_DEFAULTS, "accelerator": spec.name}
    # Knobs are snapped to a discrete lattice, so many rows decode to the
    # same configuration; MachineConfig is frozen, so duplicate rows can
    # share one instance, keyed by the row's knob tuple.
    memo: dict[tuple, MachineConfig] = {}
    configs: list[MachineConfig] = []
    for knobs in zip(*[column.tolist() for column in columns]):
        config = memo.get(knobs)
        if config is None:
            config = memo[knobs] = object.__new__(MachineConfig)
            state = vars(config)
            state.update(base)
            state.update(zip(names, knobs))
        configs.append(config)
    return configs


def _validated_matrix(vectors: np.ndarray) -> np.ndarray:
    """Shape-check, NaN-check and clip a prediction matrix.

    Clipping maps ±inf into range but passes NaN through, and a NaN knob
    would decode to an integer field of ``-2**63``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != NUM_TARGETS:
        raise ValueError(
            f"expected an (n, {NUM_TARGETS}) prediction matrix, got "
            f"{vectors.shape}"
        )
    if np.isnan(vectors).any():
        raise ValueError("prediction matrix holds NaN entries")
    return np.clip(vectors, 0.0, 1.0)


def _power(base: float, exponent: float) -> float:
    """``base ** exponent`` as the column form computes it: NumPy's array
    ``power`` with a scalar base, here over one element.  Python's ``**``
    calls libm, which rounds about 1 in 18 results differently where
    NumPy's ``power`` runs its AVX-512 loop."""
    return np.power(base, [exponent]).item()


def _rint(values: np.ndarray) -> np.ndarray:
    """``np.round`` (half to even, like Python's ``round``) as int64."""
    return np.round(values).astype(np.int64)


#: :func:`_knobs`'s (minimum, maximum, round to int, power) on one row of
#: Python floats, and on a matrix's columns.
_ONE_ROW = (min, max, round, _power)
_COLUMNS = (np.minimum, np.maximum, _rint, np.power)


def _knobs(columns, spec: AcceleratorSpec, ops: tuple) -> tuple[tuple[str, ...], tuple]:
    """The knobs of ``spec``'s kind, as (config field names, values).

    ``columns`` is a validated matrix's eleven target columns: one row's
    Python floats with :data:`_ONE_ROW`, giving one value per knob, or
    the matrix's column arrays with :data:`_COLUMNS`, giving one array
    per knob.  Products, sums, clamps, comparisons and half-to-even
    rounding are each one exact IEEE operation in Python as in NumPy,
    and both forms take their powers from NumPy's array ``power``, so a
    row's knobs are the same values of the same types in either form.
    The placement fraction fills M5-M7.
    """
    minimum, maximum, rint, power = ops
    if spec.is_gpu:
        return _GPU_FIELDS, (
            minimum(maximum(1, rint(columns[8] * spec.max_threads)), spec.max_threads),
            minimum(maximum(1, rint(32.0 * power(1024.0 / 32.0, columns[9]))), 1024),
        )
    tpc_span = max(spec.threads_per_core - 1, 1)
    simd_span = math.log2(max(spec.simd_width, 2))
    schedule, placement = columns[7], columns[5]
    return _MULTICORE_FIELDS, (
        minimum(maximum(1, rint(columns[1] * spec.cores)), spec.cores),
        minimum(
            maximum(1, rint(1 + columns[2] * tpc_span)),
            max(1, spec.threads_per_core),
        ),
        minimum(
            maximum(1, rint(power(2.0, columns[3] * simd_span))),
            max(1, spec.simd_width),
        ),
        minimum(1000.0, maximum(1.0, power(10.0, columns[4] * 3.0))),
        maximum(1, rint(16.0 * power(1024.0 / 16.0, columns[10]))),
        # The leading 0 makes NumPy count the cuts reached (bool + bool
        # is ``or`` on arrays).
        _SCHEDULES[0 + (schedule >= 0.25) + (schedule >= 0.75)],
        placement,
        placement,
        placement,
        columns[6],  # affinity
    )


def choice_signature(
    vector: np.ndarray, *, grid: float = 0.25
) -> tuple[int, ...]:
    """Discretize a target vector into integer choice selections.

    Table IV's accuracy metric compares "the integer outputs (constituting
    choice selections) of the learners"; this signature is that integer
    view — the accelerator bit plus each knob snapped to a coarse grid.
    """
    vector = np.clip(np.asarray(vector, dtype=np.float64), 0.0, 1.0)
    snapped = np.round(vector / grid).astype(np.int64)
    return tuple(int(v) for v in snapped)

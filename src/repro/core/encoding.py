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

#: The config fields the knob lists of each kind fill, in list order.
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
    ``spec`` using its own architectural parameters.  The knob arithmetic
    (rounding, log ramps, ceiling clamps) runs vectorized over the whole
    matrix and is elementwise, so a row decodes the same alone or inside
    any matrix; only the final :class:`MachineConfig` construction is
    per-row.  For a device of the opposite kind to the M1 bit this is
    bit-identical to re-decoding the vector with the bit flipped (the
    pre-fleet runner-up path) — pinned by the fleet property tests,
    because the N=2 fleet must reproduce the historical pair decisions
    exactly.
    """
    return _decode_onto(_validated_matrix(vectors), spec)


def _decode_onto(
    vectors: np.ndarray, spec: AcceleratorSpec
) -> list[MachineConfig]:
    """:func:`decode_config_for` on an already validated matrix.

    Each config is built without ``__init__``: every knob is already
    clamped into its valid range by the vectorized arithmetic (NaN, which
    clamping passes through, is rejected up front), so the checks could
    never fire.  The result is field-identical (``==`` and ``hash``) to a
    normally constructed instance.
    """
    if spec.is_gpu:
        names, knob_lists = _GPU_FIELDS, _gpu_knob_lists(vectors, spec)
    else:
        names, knob_lists = _MULTICORE_FIELDS, _multicore_knob_lists(vectors, spec)
    base = {**_CONFIG_DEFAULTS, "accelerator": spec.name}
    # Knobs are snapped to a discrete lattice, so many rows decode to the
    # same configuration; MachineConfig is frozen, so duplicate rows can
    # share one instance, keyed by the row's knob tuple.
    memo: dict[tuple, MachineConfig] = {}
    configs: list[MachineConfig] = []
    for knobs in zip(*knob_lists):
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


def _multicore_knob_lists(
    vectors: np.ndarray, multicore: AcceleratorSpec
) -> tuple[list, ...]:
    """Multicore knobs (M2-M12) for every row, as plain-scalar lists in
    :data:`_MULTICORE_FIELDS` order (the placement list fills M5-M7).

    Mirrors the scalar formulas exactly; ``tolist()`` up front keeps the
    per-row fan-out loops on plain Python scalars.
    """
    cores = np.minimum(
        np.maximum(1, np.round(vectors[:, 1] * multicore.cores)),
        multicore.cores,
    ).astype(np.int64)
    tpc_span = max(multicore.threads_per_core - 1, 1)
    tpc = np.minimum(
        np.maximum(1, np.round(1 + vectors[:, 2] * tpc_span)),
        max(1, multicore.threads_per_core),
    ).astype(np.int64)
    simd_span = math.log2(max(multicore.simd_width, 2))
    simd = np.minimum(
        np.maximum(1, np.round(2.0 ** (vectors[:, 3] * simd_span))),
        max(1, multicore.simd_width),
    ).astype(np.int64)
    blocktime = np.minimum(1000.0, np.maximum(1.0, 10.0 ** (vectors[:, 4] * 3.0)))
    chunk_frac = np.clip(vectors[:, 10], 0.0, 1.0)
    chunk = np.maximum(1, np.round(16.0 * (1024.0 / 16.0) ** chunk_frac)).astype(
        np.int64
    )
    schedules = [
        OmpSchedule.STATIC
        if value < 0.25
        else (OmpSchedule.DYNAMIC if value < 0.75 else OmpSchedule.GUIDED)
        for value in vectors[:, 7].tolist()
    ]
    placement = vectors[:, 5].tolist()
    return (
        cores.tolist(),
        tpc.tolist(),
        simd.tolist(),
        blocktime.tolist(),
        chunk.tolist(),
        schedules,
        placement,
        placement,
        placement,
        vectors[:, 6].tolist(),  # affinity
    )


def _gpu_knob_lists(
    vectors: np.ndarray, gpu: AcceleratorSpec
) -> tuple[list, list]:
    """GPU knobs (M19-M20) for every row, ceiling-clamped, as lists in
    :data:`_GPU_FIELDS` order."""
    gthreads = np.minimum(
        np.maximum(1, np.round(vectors[:, 8] * gpu.max_threads)),
        gpu.max_threads,
    ).astype(np.int64)
    local_frac = np.clip(vectors[:, 9], 0.0, 1.0)
    lthreads = np.minimum(
        np.maximum(1, np.round(32.0 * (1024.0 / 32.0) ** local_frac)), 1024
    ).astype(np.int64)
    return gthreads.tolist(), lthreads.tolist()


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

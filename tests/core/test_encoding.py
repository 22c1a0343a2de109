"""Tests for feature/target encodings."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import encoding
from repro.core.encoding import (
    NUM_FEATURES,
    NUM_TARGETS,
    TARGET_NAMES,
    choice_signature,
    decode_config_batch,
    decode_config_for,
    encode_config,
    encode_features,
)
from repro.features.bvars import BVariables
from repro.features.ivars import IVariables
from repro.machine.fleet import synthetic_fleet
from repro.machine.mvars import MachineConfig, OmpSchedule
from repro.machine.specs import ACCELERATORS, get_accelerator

GPU = get_accelerator("gtx750ti")
PHI = get_accelerator("xeonphi7120p")


def _decode_one(vector):
    """The one-row decode: ``decode_config_batch`` on a 1-row matrix."""
    return decode_config_batch(np.asarray(vector)[None], GPU, PHI)[0]


def _state(config):
    """A config's fields with their types, so an ``int`` knob never
    equals a ``float`` one."""
    return {name: (type(value), value) for name, value in vars(config).items()}


def boundary_matrix():
    """About 4,000 prediction rows: 2,000 random ones, then boundary rows.

    Each boundary row is a random row with one column set to a value the
    decoder rounds or cuts at: knobs half-way between two machine values
    (``(k + 0.5) / cores``, ``(k + 0.5) / max_threads`` and the log
    ramps' half-way points, on the registered devices), the schedule cuts
    0.25 and 0.75 and M1 at 0.5 with the floats either side, and 0, 1,
    ±inf and ``-0.0`` in every column.
    """
    rng = np.random.default_rng(9)
    specs = list(ACCELERATORS.values())
    multicores = [spec for spec in specs if not spec.is_gpu]
    columns: dict[int, list[float]] = {column: [] for column in range(NUM_TARGETS)}
    for spec in multicores:
        columns[1] += [(k + 0.5) / spec.cores for k in range(spec.cores)]
        span = max(spec.threads_per_core - 1, 1)
        columns[2] += [(k + 0.5) / span for k in range(span)]
        simd_span = math.log2(max(spec.simd_width, 2))
        columns[3] += [
            math.log2(k + 0.5) / simd_span for k in range(1, spec.simd_width)
        ]
    for spec in specs:
        if spec.is_gpu:
            columns[8] += [
                (k + 0.5) / spec.max_threads for k in range(0, spec.max_threads, 37)
            ]
    columns[9] += [math.log2((k + 0.5) / 32) / 5 for k in range(32, 1024, 3)]
    columns[10] += [math.log2((k + 0.5) / 16) / 6 for k in range(16, 1024, 3)]
    for cut in (0.25, 0.75):
        columns[7] += [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)]
    columns[0] += [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
    for values in columns.values():
        values += [0.0, 1.0, np.inf, -np.inf, -0.0]
    rows = [rng.random((2000, NUM_TARGETS))]
    for column, values in columns.items():
        block = rng.random((len(values), NUM_TARGETS))
        block[:, column] = values
        rows.append(block)
    return np.vstack(rows)


class TestEncodeFeatures:
    def test_seventeen_inputs(self):
        """The paper's network has 17 input neurons (13 B + 4 I)."""
        bv = BVariables(b1=1.0, b7=0.8)
        iv = IVariables(0.1, 0.2, 0.3, 0.4)
        vec = encode_features(bv, iv)
        assert vec.shape == (NUM_FEATURES,)
        assert NUM_FEATURES == 17

    def test_ordering(self):
        bv = BVariables(b1=1.0, b13=0.7)
        iv = IVariables(0.1, 0.2, 0.3, 0.4)
        vec = encode_features(bv, iv)
        assert vec[0] == 1.0  # B1
        assert vec[12] == 0.7  # B13
        assert vec[13] == 0.1  # I1
        assert vec[16] == 0.4  # I4


class TestConfigRoundtrip:
    def test_gpu_roundtrip(self):
        config = MachineConfig(
            accelerator=GPU.name,
            gpu_global_threads=2560,
            gpu_local_threads=128,
        )
        vec = encode_config(config, GPU, PHI)
        spec, decoded = _decode_one(vec)
        assert spec.name == GPU.name
        assert decoded.gpu_global_threads == pytest.approx(2560, abs=2)
        assert decoded.gpu_local_threads == pytest.approx(128, abs=1)

    def test_multicore_roundtrip(self):
        config = MachineConfig(
            accelerator=PHI.name,
            cores=30,
            threads_per_core=2,
            simd_width=4,
            blocktime_ms=100.0,
            placement_core=0.5,
            placement_thread=0.5,
            placement_offset=0.5,
            affinity=1.0,
            omp_schedule=OmpSchedule.DYNAMIC,
            omp_chunk=64,
        )
        vec = encode_config(config, GPU, PHI)
        spec, decoded = _decode_one(vec)
        assert spec.name == PHI.name
        assert decoded.cores == 30
        assert decoded.threads_per_core == 2
        assert decoded.simd_width == 4
        assert decoded.omp_schedule is OmpSchedule.DYNAMIC
        assert decoded.affinity == 1.0
        assert decoded.blocktime_ms == pytest.approx(100.0, rel=0.05)

    def test_target_dimension(self):
        config = MachineConfig(accelerator=GPU.name)
        vec = encode_config(config, GPU, PHI)
        assert vec.shape == (NUM_TARGETS,)
        assert len(TARGET_NAMES) == NUM_TARGETS

    def test_accel_bit(self):
        gpu_vec = encode_config(MachineConfig(accelerator=GPU.name), GPU, PHI)
        phi_vec = encode_config(MachineConfig(accelerator=PHI.name), GPU, PHI)
        assert gpu_vec[0] == 0.0
        assert phi_vec[0] == 1.0

    def test_decode_thresholds_accel_at_half(self):
        vec = np.full(NUM_TARGETS, 0.5)
        vec[0] = 0.49
        spec, _ = _decode_one(vec)
        assert spec.is_gpu
        vec[0] = 0.51
        spec, _ = _decode_one(vec)
        assert not spec.is_gpu

    def test_decode_clamps_wild_vectors(self):
        vec = np.full(NUM_TARGETS, 99.0)
        spec, config = _decode_one(vec)
        assert config.cores <= PHI.cores


class TestChoiceSignature:
    def test_integer_tuple(self):
        sig = choice_signature(np.linspace(0, 1, NUM_TARGETS))
        assert all(isinstance(v, int) for v in sig)
        assert len(sig) == NUM_TARGETS

    def test_nearby_vectors_same_signature(self):
        a = choice_signature(np.full(NUM_TARGETS, 0.52))
        b = choice_signature(np.full(NUM_TARGETS, 0.55))
        assert a == b

    def test_distant_vectors_differ(self):
        a = choice_signature(np.zeros(NUM_TARGETS))
        b = choice_signature(np.ones(NUM_TARGETS))
        assert a != b


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=11, max_size=11))
def test_property_decode_always_valid(values):
    spec, config = _decode_one(values)
    # Decoded configs always satisfy the machine's limits.
    if spec.is_gpu:
        assert 1 <= config.gpu_global_threads <= GPU.max_threads
        assert 1 <= config.gpu_local_threads <= 1024
    else:
        assert 1 <= config.cores <= PHI.cores
        assert 1 <= config.threads_per_core <= PHI.threads_per_core


class TestBatchEncoding:
    """The batched decode paths must agree with the one-row decode
    bit-for-bit — the serving cache's exactness depends on it."""

    def test_decode_batch_matches_looped_scalar(self):
        """A one-row matrix decodes on Python floats; each row alone gives
        its batch row's spec and fields, of the same types, on every pair
        of registered devices."""
        vectors = boundary_matrix()
        gpus = [spec for spec in ACCELERATORS.values() if spec.is_gpu]
        multicores = [spec for spec in ACCELERATORS.values() if not spec.is_gpu]
        for gpu in gpus:
            for multicore in multicores:
                decoded = decode_config_batch(vectors, gpu, multicore)
                for row, (spec, config) in enumerate(decoded):
                    alone = decode_config_batch(vectors[row : row + 1], gpu, multicore)
                    assert alone[0][0] is spec
                    assert _state(alone[0][1]) == _state(config)

    def test_decode_for_matches_looped_scalar(self):
        vectors = boundary_matrix()
        for spec in synthetic_fleet(8).devices:
            decoded = decode_config_for(vectors, spec)
            for row, config in enumerate(decoded):
                alone = decode_config_for(vectors[row : row + 1], spec)
                assert _state(alone[0]) == _state(config)

    def test_one_row_decode_builds_no_knob_lists(self, monkeypatch):
        """A one-row matrix runs the knob formulas on its Python floats; a
        larger one runs them on its column arrays, once per kind."""
        calls = []
        knobs = encoding._knobs

        def recorded(columns, spec, ops):
            calls.append((spec.name, {type(column) for column in columns}))
            return knobs(columns, spec, ops)

        monkeypatch.setattr(encoding, "_knobs", recorded)
        vector = np.full(NUM_TARGETS, 0.5)
        for accel in (0.2, 0.8):
            vector[0] = accel
            decode_config_batch(vector[None], GPU, PHI)
            for spec in (GPU, PHI):
                decode_config_for(vector[None], spec)
        order = (GPU, GPU, PHI, PHI, GPU, PHI)
        assert calls == [(spec.name, {float}) for spec in order]
        calls.clear()
        decode_config_batch(np.vstack([vector, vector]), GPU, PHI)
        assert calls == [(PHI.name, {np.ndarray})]

    def test_one_row_errors_match_the_batch(self):
        vector = np.full(NUM_TARGETS, 0.5)
        vector[3] = np.nan
        decoders = (
            lambda matrix: decode_config_batch(matrix, GPU, PHI),
            lambda matrix: decode_config_for(matrix, GPU),
            lambda matrix: decode_config_for(matrix, PHI),
        )
        for decode in decoders:
            for matrix in (vector[None], np.vstack([vector, vector])):
                with pytest.raises(
                    ValueError, match="^prediction matrix holds NaN entries$"
                ):
                    decode(matrix)
            with pytest.raises(ValueError, match=r"^expected an \(n, 11\) "):
                decode(np.full(NUM_TARGETS, 0.5))

    def test_decode_batch_empty(self):
        assert decode_config_batch(np.empty((0, NUM_TARGETS)), GPU, PHI) == []

    def test_decode_batch_validates_shape(self):
        with pytest.raises(ValueError):
            decode_config_batch(np.zeros((3, NUM_TARGETS - 1)), GPU, PHI)
        with pytest.raises(ValueError):
            decode_config_batch(np.zeros(NUM_TARGETS), GPU, PHI)

    def test_duplicate_rows_share_one_config_instance(self):
        """Identical rows decode to one shared (frozen) MachineConfig."""
        vectors = np.tile(np.full(NUM_TARGETS, 0.4), (3, 1))
        decoded = decode_config_batch(vectors, GPU, PHI)
        assert decoded[0][1] is decoded[1][1] is decoded[2][1]

    def test_configs_equal_their_validated_reconstruction(self):
        """Decoded configs skip ``__init__``; each holds exactly the state
        a validated construction gives, on both kinds."""
        vectors = np.random.default_rng(11).random((64, NUM_TARGETS))
        vectors[:8] = np.round(vectors[:8], 1)  # lattice rows share configs
        decoded = [config for _, config in decode_config_batch(vectors, GPU, PHI)]
        for spec in (GPU, PHI):
            decoded += decode_config_for(vectors, spec)
        for config in decoded:
            rebuilt = dataclasses.replace(config)
            assert vars(config) == vars(rebuilt)
            assert hash(config) == hash(rebuilt)


class TestNonFiniteVectors:
    """Clipping maps ±inf into range but passes NaN through, which would
    decode to an integer knob of ``-2**63``; every decoder rejects NaN."""

    @pytest.mark.parametrize(
        ("accel", "knob"), [(0.2, 8), (0.2, 9), (0.8, 1), (0.8, 3), (np.nan, 1)]
    )
    def test_nan_knob_rejected(self, accel, knob):
        vector = np.full(NUM_TARGETS, 0.5)
        vector[0], vector[knob] = accel, np.nan
        with pytest.raises(ValueError, match="NaN"):
            _decode_one(vector)
        matrix = np.vstack([np.full(NUM_TARGETS, 0.5), vector])
        with pytest.raises(ValueError, match="NaN"):
            decode_config_batch(matrix, GPU, PHI)
        for spec in (GPU, PHI):
            with pytest.raises(ValueError, match="NaN"):
                decode_config_for(vector[None], spec)

    @pytest.mark.parametrize("accel", [0.2, 0.8])
    def test_infinities_decode_to_valid_configs(self, accel):
        vector = np.where(np.arange(NUM_TARGETS) % 2, np.inf, -np.inf)
        vector[0] = accel
        spec, config = _decode_one(vector)
        # replace() re-runs MachineConfig's validation on every field.
        assert dataclasses.replace(config) == config
        assert decode_config_for(vector[None], spec) == [config]
        for kind in (GPU, PHI):
            decoded = decode_config_for(vector[None], kind)[0]
            assert vars(decoded) == vars(dataclasses.replace(decoded))

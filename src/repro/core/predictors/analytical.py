"""Analytical decision-tree model wrapped as a Predictor.

This is Table IV's "Decision Tree" row: the hand-built Section IV model
needs no training; it computes M choices directly from (B, I) through the
tree and the linear equations.  Wrapping it under the Predictor interface
lets the Table IV experiment compare it against the learned models with
identical plumbing.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.encoding import encode_config
from repro.core.predictors.base import Predictor, _validate_batch
from repro.core.predictors.confidence import ConfidenceReport
from repro.machine.mvars import MachineConfig
from repro.machine.specs import AcceleratorSpec

__all__ = ["AnalyticalTreePredictor"]

_THRESHOLD = 0.5  # mirrors repro.core.decision_tree._THRESHOLD
_MAX_LOCAL_THREADS = 1024.0  # mirrors repro.core.equations._MAX_LOCAL_THREADS


class AnalyticalTreePredictor(Predictor):
    """Section IV's manual decision tree + linear equations."""

    name = "decision_tree"

    def __init__(self, gpu: AcceleratorSpec, multicore: AcceleratorSpec) -> None:
        self._gpu = gpu
        self._multicore = multicore

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """No-op: the analytical model is not trained."""

    def confidence_batch(self, features: np.ndarray) -> ConfidenceReport:
        """Exact by construction: the model *is* the Section IV rules.

        There is no estimation error to report — every prediction follows
        deterministically from the hand-built tree — so confidence is 1.0
        (which also means the analytical predictor never triggers the
        exploration path).
        """
        features = _validate_batch(features)
        return ConfidenceReport.exact(features.shape[0])

    def predict_vector(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        single = features.ndim == 1
        rows = features.reshape(1, -1) if single else features
        result = self.predict_batch(rows)
        return result[0] if single else result

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Masked branch evaluation of the whole analytical model.

        Instead of walking the IF-ELSE tree row by row, every Section IV
        rule becomes a boolean mask over the batch (first matching rule
        wins, as in the scalar tree), and the intra-accelerator equations
        of *both* branches are evaluated as vectorized column formulas;
        each row then keeps the branch its mask selected.  The arithmetic
        mirrors :mod:`repro.core.equations` and
        :func:`repro.core.encoding.encode_config` term by term, and
        :meth:`predict_vector` delegates here, so batched and scalar
        serving share one implementation (differentially pinned against
        ``decision_tree_predict`` + ``encode_config`` by tests).
        """
        features = _validate_batch(features)
        if features.shape[0] == 0:
            return np.empty((0, 0), dtype=np.float64)
        b = features[:, :13].copy()
        i = features[:, 13:17]

        # Phase-sum repair: feature rows round-trip through float math, so
        # normalize B1-B5 when their sum is positive, else fall back to a
        # pure B1 phase profile.
        totals = b[:, :5].sum(axis=1)
        positive = totals > 0
        b[positive, :5] = b[positive, :5] / totals[positive, None]
        b[~positive, 0] = 1.0

        choose_multicore = self._select_accelerator_mask(b, i)
        gpu_rows = self._gpu_branch(i)
        multicore_rows = self._multicore_branch(b, i)
        return np.where(choose_multicore[:, None], multicore_rows, gpu_rows)

    @staticmethod
    def _select_accelerator_mask(b: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The Section IV decision tree as ordered masks (M1 per row)."""
        i1, i2 = i[:, 0], i[:, 1]
        parallel_mass = b[:, 0] + b[:, 1] + b[:, 2]
        sequential_mass = b[:, 3] + b[:, 4]
        conditions = [
            (i1 == 0.0) & (i2 == 0.0),  # cache-resident graph -> multicore
            i1 >= _THRESHOLD,  # large graph -> GPU
            (b[:, 4] >= _THRESHOLD) & (b[:, 9] >= _THRESHOLD),  # RW reduce
            (b[:, 4] >= _THRESHOLD) & (b[:, 5] > 0.0) & (b[:, 10] < 0.3),
            b[:, 5] >= _THRESHOLD,  # FP -> multicore
            b[:, 7] >= _THRESHOLD,  # indirect addressing -> multicore
            np.max(b[:, :3], axis=1) > _THRESHOLD,  # parallel -> GPU
            (b[:, 3] >= _THRESHOLD) & (i2 >= _THRESHOLD),  # push-pop dense
        ]
        choices = [True, False, True, False, True, True, False, True]
        fallback = parallel_mass < sequential_mass
        return np.select(conditions, choices, default=fallback).astype(bool)

    @staticmethod
    def _avg_degree(i: np.ndarray) -> np.ndarray:
        """Vectorized ``Avg.Deg = |I3 - min(1, I2/I1)|`` (0 when I1 = 0)."""
        i1 = i[:, 0]
        safe = np.where(i1 > 0, i1, 1.0)
        ratio = np.where(i1 > 0, np.minimum(1.0, i[:, 1] / safe), 0.0)
        return np.abs(i[:, 2] - ratio)

    def _gpu_branch(self, i: np.ndarray) -> np.ndarray:
        """Encoded targets of the GPU equations (M19/M20) for all rows."""
        gpu, multicore = self._gpu, self._multicore
        avg_degree = self._avg_degree(i)
        local = np.maximum(1, np.round(avg_degree * _MAX_LOCAL_THREADS) + 1)
        global_threads = np.maximum(
            np.round(i[:, 0] * gpu.max_threads) + 1, local
        )
        local = np.minimum(local, 1024)
        global_threads = np.minimum(global_threads, gpu.max_threads)

        base = encode_config(MachineConfig(accelerator=gpu.name), gpu, multicore)
        out = np.tile(base, (i.shape[0], 1))
        out[:, 8] = global_threads / gpu.max_threads
        out[:, 9] = np.where(
            local <= 32.0,
            0.0,
            np.minimum(1.0, np.log2(local / 32.0) / math.log2(1024.0 / 32.0)),
        )
        return np.clip(out, 0.0, 1.0)

    def _multicore_branch(self, b: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Encoded targets of the multicore equations (M2-M18) per row."""
        gpu, multicore = self._gpu, self._multicore
        avg_degree = self._avg_degree(i)
        avg_deg_dia = np.abs((i[:, 3] + avg_degree) / 2.0)

        cores = np.minimum(
            np.maximum(
                np.floor(i[:, 0] * multicore.cores) + 1, multicore.cores // 8
            ),
            multicore.cores,
        )
        tpc = np.minimum(
            multicore.threads_per_core,
            np.floor(avg_degree * multicore.threads_per_core) + 1,
        )
        simd = np.minimum(
            multicore.simd_width, np.floor(avg_degree * multicore.simd_width) + 1
        )
        blocktime = np.minimum(
            1000.0, ((b[:, 11] + b[:, 12]) / 2.0) * 1000.0 + 1.0
        )
        placement = np.minimum(1.0, avg_deg_dia)
        affinity = np.minimum(1.0, (avg_deg_dia + b[:, 9]) / 2.0)
        schedule = np.where(
            b[:, 9] >= 0.5, 0.5, np.where(b[:, 3] + b[:, 4] >= 0.5, 1.0, 0.0)
        )
        chunk = np.maximum(1, np.round(avg_degree * 256.0) + 16)

        base = encode_config(
            MachineConfig(accelerator=multicore.name), gpu, multicore
        )
        out = np.tile(base, (b.shape[0], 1))
        out[:, 1] = cores / multicore.cores
        tpc_span = max(multicore.threads_per_core - 1, 1)
        out[:, 2] = (tpc - 1) / tpc_span
        simd_span = max(math.log2(max(multicore.simd_width, 2)), 1.0)
        out[:, 3] = np.log2(np.maximum(simd, 1)) / simd_span
        out[:, 4] = np.log10(np.maximum(blocktime, 1.0)) / 3.0
        # placement_looseness is the mean of three equal placements; keep
        # the same floating-point expression so rounding matches.
        out[:, 5] = (placement + placement + placement) / 3.0
        out[:, 6] = affinity
        out[:, 7] = schedule
        out[:, 10] = np.where(
            chunk <= 16.0,
            0.0,
            np.minimum(1.0, np.log2(chunk / 16.0) / math.log2(1024.0 / 16.0)),
        )
        return np.clip(out, 0.0, 1.0)

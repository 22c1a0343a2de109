"""Analytical decision-tree model wrapped as a Predictor.

This is Table IV's "Decision Tree" row: the hand-built Section IV model
needs no training; it computes M choices directly from (B, I) through the
tree and the linear equations.  Wrapping it under the Predictor interface
lets the Table IV experiment compare it against the learned models with
identical plumbing.
"""

from __future__ import annotations

import numpy as np

from repro.core.decision_tree import decision_tree_predict
from repro.core.encoding import encode_config
from repro.core.predictors.base import Predictor, _validate_batch
from repro.features.bvars import BVariables
from repro.features.ivars import IVariables
from repro.machine.specs import AcceleratorSpec

__all__ = ["AnalyticalTreePredictor"]


class AnalyticalTreePredictor(Predictor):
    """Section IV's manual decision tree + linear equations."""

    name = "decision_tree"

    def __init__(self, gpu: AcceleratorSpec, multicore: AcceleratorSpec) -> None:
        self._gpu = gpu
        self._multicore = multicore

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """No-op: the analytical model is not trained."""

    def confidence_batch(self, features: np.ndarray) -> np.ndarray:
        """Exact by construction: the model *is* the Section IV rules.

        There is no estimation error to report — every prediction follows
        deterministically from the hand-built tree — so confidence is 1.0
        (which also means the analytical predictor never triggers the
        exploration path).
        """
        features = _validate_batch(features)
        return np.ones(features.shape[0])

    def predict_vector(self, features: np.ndarray) -> np.ndarray:
        """``encode_config`` of :func:`decision_tree_predict` for one row.

        Feature rows round-trip through float math, so B1-B5 are first
        divided by their sum when it is positive; otherwise the row
        becomes a pure B1 phase profile.
        """
        values = np.asarray(features, dtype=np.float64).tolist()
        bvalues = values[:13]
        total = sum(bvalues[:5])
        if total > 0:
            bvalues[:5] = [value / total for value in bvalues[:5]]
        else:
            bvalues[0] = 1.0
        gpu, multicore = self._gpu, self._multicore
        _, config, _ = decision_tree_predict(
            BVariables(*bvalues), IVariables(*values[13:17]), gpu, multicore
        )
        return encode_config(config, gpu, multicore)

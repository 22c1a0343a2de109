"""Simple linear regression predictor (Table IV's weakest learner).

Ordinary least squares from features (plus bias) to the normalized M
targets.  The paper finds it cheap (0.05 ms) but inaccurate (50.1%) —
the B/I-to-M relationships are non-linear.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictors.base import LearnedPredictor
from repro.core.predictors.confidence import squash_uncertainty

__all__ = ["LinearPredictor"]


class LinearPredictor(LearnedPredictor):
    """OLS regression with a bias column."""

    name = "linear"

    #: M1 residual band at which confidence crosses 0.5.
    CONFIDENCE_SCALE = 0.25

    def __init__(self) -> None:
        super().__init__()
        self._coef: np.ndarray | None = None
        self._residual_rms = 0.0
        self._gram_pinv: np.ndarray | None = None

    @staticmethod
    def _design(features: np.ndarray) -> np.ndarray:
        return np.hstack([features, np.ones((features.shape[0], 1))])

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        design = self._design(features)
        self._coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        # Residual band + leverage statistics for confidence: the M1
        # column's training RMS error, widened per row by the classical
        # OLS prediction-variance leverage x'(X'X)^+ x.
        predicted = design @ self._coef
        self._residual_rms = float(
            np.sqrt(np.mean((targets[:, 0] - predicted[:, 0]) ** 2))
        )
        self._gram_pinv = np.linalg.pinv(design.T @ design)

    def _predict(self, features: np.ndarray) -> np.ndarray:
        assert self._coef is not None
        return self._design(features) @ self._coef

    def _confidence(self, features: np.ndarray) -> np.ndarray:
        """Residual-band confidence: training RMS scaled by leverage."""
        assert self._gram_pinv is not None
        design = self._design(features)
        leverage = np.einsum(
            "ij,jk,ik->i", design, self._gram_pinv, design
        )
        uncertainty = self._residual_rms * np.sqrt(
            1.0 + np.maximum(leverage, 0.0)
        )
        return squash_uncertainty(uncertainty, self.CONFIDENCE_SCALE)

"""Adaptive-library baseline (Rinnegan-style, Table IV).

Rinnegan "profiles program performance and then uses a simple model
equation to predict performance", with output "directly proportional to
only the data movement and accelerator utilization parameters".  The
reproduction: per accelerator, a two-feature linear model — data movement
(B9 + B10 + B11 mass weighted by graph size) and exploitable utilization
(parallel phase mass) — fit to the observed best times; the accelerator
with the lower predicted time wins, and intra-accelerator knobs fall back
to full-resource defaults.  Its restricted feature view is exactly why it
lands near the bottom of Table IV.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import NUM_TARGETS
from repro.core.predictors.base import LearnedPredictor
from repro.core.predictors.confidence import squash_uncertainty

__all__ = ["AdaptiveLibraryPredictor"]


def _library_features(features: np.ndarray) -> np.ndarray:
    """(data movement, utilization, bias) summary of the 17-dim input."""
    b = features[:, :13]
    i = features[:, 13:]
    data_movement = (b[:, 8] + b[:, 9] + b[:, 10]) * (0.5 + i[:, 1])
    utilization = b[:, 0] + b[:, 1] + b[:, 2]
    return np.column_stack(
        [data_movement, utilization, np.ones(features.shape[0])]
    )


class AdaptiveLibraryPredictor(LearnedPredictor):
    """Two-parameter performance model per accelerator."""

    name = "adaptive_library"

    #: Coverage distance at which confidence crosses 0.5.  Fixed (not
    #: data-dependent) so confidence is monotone non-decreasing under a
    #: training superset — the ``calibration`` fuzz property.
    CONFIDENCE_SCALE = 0.25

    def __init__(self) -> None:
        super().__init__()
        self._coef: np.ndarray | None = None
        self._default_targets: np.ndarray | None = None
        self._train_summary: np.ndarray | None = None

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        summary = _library_features(features)
        # Only the accelerator bit is learned (from the two summary
        # features); the remaining knobs are frozen at the training
        # set's mean configuration — the "simple model" limitation.
        accel = targets[:, 0:1]
        self._coef, *_ = np.linalg.lstsq(summary, accel, rcond=None)
        self._default_targets = targets.mean(axis=0)
        # Training coverage table for confidence: the (data movement,
        # utilization) points the model has actually seen.
        self._train_summary = summary[:, :2].copy()

    def _predict(self, features: np.ndarray) -> np.ndarray:
        assert self._coef is not None and self._default_targets is not None
        summary = _library_features(features)
        accel = np.clip(summary @ self._coef, 0.0, 1.0)
        out = np.tile(self._default_targets, (features.shape[0], 1))
        out[:, 0] = accel[:, 0]
        # Full-resource intra-accelerator defaults.
        out[:, 1] = 1.0  # all cores
        out[:, 8] = 1.0  # all global threads
        return out

    def _confidence(self, features: np.ndarray) -> np.ndarray:
        """Table-coverage confidence: distance to the nearest seen point.

        Uncertainty is the minimum Euclidean distance from a row's (data
        movement, utilization) summary to any training row's.  Adding
        training rows can only shrink that minimum, so confidence is
        monotone non-decreasing under a training superset.
        """
        assert self._train_summary is not None
        summary = _library_features(features)[:, :2]
        diff = summary[:, None, :] - self._train_summary[None, :, :]
        distance = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
        return squash_uncertainty(distance, self.CONFIDENCE_SCALE)

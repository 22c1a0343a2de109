"""Predictor interface shared by all automated learners (Section V).

A predictor maps the 17-dimensional (B, I) feature vector to the
normalized M target vector; the decision layer
(:mod:`repro.runtime.engine.decision`) decodes that into a concrete
accelerator + ``MachineConfig`` deployment.  Learned predictors
implement :meth:`fit`; the analytical decision tree wraps the
Section IV model under the same interface so Table IV can compare them
uniformly.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.encoding import NUM_FEATURES
from repro.errors import NotTrainedError, TrainingError

__all__ = ["Predictor", "LearnedPredictor"]


def _validate_batch(features: np.ndarray) -> np.ndarray:
    """Coerce a batch into a float64 ``(n, 17)`` matrix or raise."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or (
        features.shape[0] and features.shape[1] != NUM_FEATURES
    ):
        raise ValueError(
            f"predict_batch expects an (n, {NUM_FEATURES}) matrix, got "
            f"shape {features.shape}"
        )
    return features


class Predictor(abc.ABC):
    """Maps (B, I) features to normalized M targets."""

    #: registry key, e.g. ``"deep128"``.
    name: str = ""

    #: Whether a row's ``predict_batch`` output is independent of which
    #: other rows share the batch.  True for per-row evaluation (the
    #: fallback loop, tree walks); matrix models set this False because
    #: BLAS dispatches different kernels by batch shape (GEMV for one
    #: row, blocked GEMM otherwise) whose sums round a few ULP apart.
    #: The decision layer quantizes shape-dependent predictions before
    #: decoding so decisions stay a pure function of the feature row.
    batch_shape_independent: bool = True

    @abc.abstractmethod
    def predict_vector(self, features: np.ndarray) -> np.ndarray:
        """Predict the normalized M target vector for one feature row."""

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Predict an ``(n, T)`` target matrix for ``(n, 17)`` features.

        Subclasses override this with a natively vectorized pass; the
        fallback loops :meth:`predict_vector` row by row, so batched and
        scalar serving always agree on every predictor.
        """
        features = _validate_batch(features)
        if features.shape[0] == 0:
            return np.empty((0, 0), dtype=np.float64)
        return np.vstack([self.predict_vector(row) for row in features])

    def confidence_batch(self, features: np.ndarray) -> np.ndarray:
        """Per-row confidence in [0, 1] for a batch: an ``(n,)`` array.

        The base default is the constant "uncalibrated" 0.5 so every
        predictor satisfies the protocol; families override it with
        ensemble spread, leaf statistics, residual bands, coverage
        distance, or exactness-by-construction.  Implementations must be
        pure side computations: calling this never changes what
        :meth:`predict_batch` returns for the same rows.
        """
        features = _validate_batch(features)
        return np.full(features.shape[0], 0.5)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class LearnedPredictor(Predictor):
    """Base class for predictors trained on an offline database."""

    # Learned models predict with one matrix pass over the whole batch;
    # per-row exact subclasses (the CART tree walk) override this back.
    batch_shape_independent: bool = False

    def __init__(self) -> None:
        self._trained = False

    @abc.abstractmethod
    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Subclass hook: fit on validated (n, 17) / (n, T) matrices."""

    @abc.abstractmethod
    def _predict(self, features: np.ndarray) -> np.ndarray:
        """Subclass hook: predict an (n, T) matrix for (n, 17) features."""

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Train on the offline database.

        Raises:
            TrainingError: for empty or mismatched training matrices.
        """
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2 or targets.ndim != 2:
            raise TrainingError("training matrices must be 2-D")
        if features.shape[0] == 0:
            raise TrainingError("training set is empty")
        if features.shape[0] != targets.shape[0]:
            raise TrainingError("feature/target row mismatch")
        self._fit(features, targets)
        self._trained = True

    def predict_vector(self, features: np.ndarray) -> np.ndarray:
        if not self._trained:
            raise NotTrainedError(
                f"{self.name or type(self).__name__} queried before fit()"
            )
        features = np.asarray(features, dtype=np.float64)
        single = features.ndim == 1
        batch = features.reshape(1, -1) if single else features
        prediction = np.clip(self._predict(batch), 0.0, 1.0)
        return prediction[0] if single else prediction

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Native batched inference: every learned model's ``_predict``
        hook is already a matrix pass (one matmul / forward / descent for
        the whole batch), so batching costs one call instead of ``n``."""
        if not self._trained:
            raise NotTrainedError(
                f"{self.name or type(self).__name__} queried before fit()"
            )
        features = _validate_batch(features)
        if features.shape[0] == 0:
            return np.empty((0, 0), dtype=np.float64)
        return np.clip(self._predict(features), 0.0, 1.0)

    def confidence_batch(self, features: np.ndarray) -> np.ndarray:
        if not self._trained:
            raise NotTrainedError(
                f"{self.name or type(self).__name__} queried before fit()"
            )
        features = _validate_batch(features)
        return self._confidence(features)

    def _confidence(self, features: np.ndarray) -> np.ndarray:
        """Subclass hook: family-native confidence for validated rows."""
        return np.full(features.shape[0], 0.5)

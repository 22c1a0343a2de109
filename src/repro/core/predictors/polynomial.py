"""Multiple non-linear (polynomial) regression predictor (Section V-C).

The paper fits a 7th-order regression ("provides an 85% accuracy for
curve predictions"; lower orders lack accuracy, higher orders cost too
much).  Features are expanded into per-variable powers 1..order plus a
curated set of pairwise interaction terms (the B x I couplings the
analytical equations use), then solved with ridge-regularized least
squares.  The expansion is deliberately heavier than the other learners —
that's what gives the regression its characteristic high overhead in
Table IV (4.11 ms vs 0.05 for linear).
"""

from __future__ import annotations

import numpy as np

from repro.core.predictors.base import LearnedPredictor
from repro.core.predictors.confidence import squash_uncertainty

__all__ = ["PolynomialPredictor"]


class PolynomialPredictor(LearnedPredictor):
    """Ridge regression on a 7th-order polynomial feature expansion."""

    #: M1 residual band at which confidence crosses 0.5.
    CONFIDENCE_SCALE = 0.25

    def __init__(self, order: int = 7, *, ridge: float = 1.0) -> None:
        super().__init__()
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = int(order)
        self.ridge = float(ridge)
        self.name = f"poly{order}" if order != 7 else "multi_regression"
        self._coef: np.ndarray | None = None
        self._residual_rms = 0.0
        self._gram_inv: np.ndarray | None = None

    def _design(self, features: np.ndarray) -> np.ndarray:
        n, d = features.shape
        columns = [np.ones((n, 1))]
        for power in range(1, self.order + 1):
            columns.append(features**power)
        # Pairwise interactions: every feature with every other (one
        # triangle), mirroring the coupled B*I terms in Section IV.
        for i in range(d):
            for j in range(i + 1, d):
                columns.append((features[:, i] * features[:, j]).reshape(n, 1))
        return np.hstack(columns)

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        design = self._design(features)
        gram = design.T @ design
        gram += self.ridge * np.eye(gram.shape[0])
        self._coef = np.linalg.solve(gram, design.T @ targets)
        # Residual band + ridge-leverage statistics for confidence; the
        # regularized gram is positive definite, so pinv is exact.
        predicted = design @ self._coef
        self._residual_rms = float(
            np.sqrt(np.mean((targets[:, 0] - predicted[:, 0]) ** 2))
        )
        self._gram_inv = np.linalg.pinv(gram)

    def _predict(self, features: np.ndarray) -> np.ndarray:
        assert self._coef is not None
        return self._design(features) @ self._coef

    def _confidence(self, features: np.ndarray) -> np.ndarray:
        """Residual-band confidence over the polynomial design row."""
        assert self._gram_inv is not None
        design = self._design(features)
        leverage = np.einsum("ij,jk,ik->i", design, self._gram_inv, design)
        uncertainty = self._residual_rms * np.sqrt(
            1.0 + np.maximum(leverage, 0.0)
        )
        return squash_uncertainty(uncertainty, self.CONFIDENCE_SCALE)

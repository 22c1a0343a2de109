"""Shared confidence normalization for the predictor zoo.

Every predictor family exposes a family-native uncertainty signal —
ensemble spread for the deep nets, leaf statistics for the trees,
residual bands for the regressions, table-coverage distance for the
adaptive library, exactness-by-construction for the analytical model —
and :meth:`~repro.core.predictors.base.Predictor.confidence_batch`
returns it as one ``(n,)`` float64 array of per-row confidence in
[0, 1], so the decision layer can threshold, explore, and export a
single ``quality.confidence`` series without knowing which family
produced it.

The normalization is a fixed squash ``confidence = 1 / (1 + u / scale)``
applied to the family's raw uncertainty ``u ≥ 0``: zero uncertainty maps
to confidence 1.0, uncertainty equal to the family's scale maps to 0.5,
and the map is strictly decreasing — so any family whose raw uncertainty
is monotone non-increasing under added training data (the adaptive
library's coverage distance, by construction) yields confidence that is
monotone non-decreasing, the property the ``calibration`` fuzz component
checks.

Confidence is a pure side computation: requesting it never perturbs the
predicted vectors, which keeps the exploration-off serving path
bit-identical to plain ``predict_batch``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["squash_uncertainty"]


def squash_uncertainty(uncertainty: np.ndarray, scale: float) -> np.ndarray:
    """Map raw uncertainty ``u ≥ 0`` into confidence ``(0, 1]``.

    ``u = 0`` → 1.0; ``u = scale`` → 0.5; strictly decreasing in ``u``.
    """
    if scale <= 0.0:
        raise ValueError(f"squash scale must be positive, got {scale}")
    u = np.maximum(np.asarray(uncertainty, dtype=np.float64), 0.0)
    return 1.0 / (1.0 + u / scale)

"""Per-family confidence arrays and the shared squash normalization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import NUM_FEATURES, NUM_TARGETS
from repro.core.predictors import make_predictor
from repro.core.predictors.base import LearnedPredictor, Predictor
from repro.core.predictors.confidence import squash_uncertainty
from repro.machine.specs import DEFAULT_PAIR, get_accelerator

GPU, PHI = (get_accelerator(name) for name in DEFAULT_PAIR)

#: family -> the signal its confidence squashes.
FAMILY_SOURCES = {
    "decision_tree": "exact",
    "linear": "residual-band",
    "multi_regression": "residual-band",
    "adaptive_library": "table-coverage",
    "cart": "leaf-stats",
    "deep16": "ensemble",
}


def _trained(family: str, *, rows: int = 24, seed: int = 3):
    predictor = make_predictor(family, GPU, PHI, seed=seed)
    if isinstance(predictor, LearnedPredictor):
        rng = np.random.default_rng(seed)
        predictor.fit(
            rng.random((rows, NUM_FEATURES)), rng.random((rows, NUM_TARGETS))
        )
    return predictor


def _probes(count: int = 6, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.round(rng.integers(0, 11, size=(count, NUM_FEATURES)) / 10.0, 1)


class TestSquash:
    def test_anchor_points(self):
        squashed = squash_uncertainty(np.array([0.0, 0.25, 1e9]), 0.25)
        assert squashed[0] == 1.0
        assert squashed[1] == pytest.approx(0.5)
        assert squashed[2] == pytest.approx(0.0, abs=1e-6)

    def test_strictly_decreasing(self):
        u = np.linspace(0.0, 3.0, 50)
        squashed = squash_uncertainty(u, 0.1)
        assert np.all(np.diff(squashed) < 0.0)

    def test_negative_uncertainty_clamped(self):
        assert squash_uncertainty(np.array([-1.0]), 0.5)[0] == 1.0

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            squash_uncertainty(np.zeros(1), 0.0)


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILY_SOURCES))
    def test_source_and_range(self, family):
        """One float64 per row: exactly 1.0 from the exact source, and
        strictly inside (0, 1) from an estimated one on held-out rows."""
        confidence = _trained(family).confidence_batch(_probes())
        assert confidence.shape == (6,)
        assert confidence.dtype == np.float64
        if FAMILY_SOURCES[family] == "exact":
            assert np.all(confidence == 1.0)
        else:
            assert np.all((confidence > 0.0) & (confidence < 1.0))

    @pytest.mark.parametrize("family", sorted(FAMILY_SOURCES))
    def test_with_confidence_is_pure(self, family):
        """Requesting confidence never perturbs the predicted vectors."""
        predictor = _trained(family)
        probes = _probes()
        plain = predictor.predict_batch(probes)
        confidence = predictor.confidence_batch(probes)
        assert np.array_equal(plain, predictor.predict_batch(probes))
        assert np.array_equal(confidence, predictor.confidence_batch(probes))

    def test_analytical_is_exact(self):
        confidence = _trained("decision_tree").confidence_batch(_probes())
        assert np.all(confidence == 1.0)

    def test_base_default_is_uncalibrated(self):
        """A predictor without its own signal reads a constant 0.5."""

        class Flat(Predictor):
            def predict_vector(self, features):
                return np.zeros(NUM_TARGETS)

        confidence = Flat().confidence_batch(_probes())
        assert confidence.shape == (6,)
        assert np.all(confidence == 0.5)

    def test_adaptive_exact_on_seen_rows(self):
        """Coverage distance is zero exactly on the training rows."""
        predictor = make_predictor("adaptive_library", GPU, PHI, seed=0)
        rng = np.random.default_rng(7)
        features = np.round(
            rng.integers(0, 11, size=(12, NUM_FEATURES)) / 10.0, 1
        )
        predictor.fit(features, rng.random((12, NUM_TARGETS)))
        assert np.all(predictor.confidence_batch(features) == 1.0)

    def test_ensemble_spread_lowers_confidence(self):
        """A deep net's held-out rows are less certain than a constant fit."""
        rng = np.random.default_rng(5)
        features = rng.random((24, NUM_FEATURES))
        constant = make_predictor("deep16", GPU, PHI, seed=1)
        constant.fit(features, np.full((24, NUM_TARGETS), 0.5))
        noisy = make_predictor("deep16", GPU, PHI, seed=1)
        noisy.fit(features, rng.random((24, NUM_TARGETS)))
        probes = _probes()
        calm = constant.confidence_batch(probes).mean()
        spread = noisy.confidence_batch(probes).mean()
        assert spread <= calm

"""Tests for the learner zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import NUM_FEATURES, NUM_TARGETS
from repro.core.predictors import (
    AdaptiveLibraryPredictor,
    AnalyticalTreePredictor,
    CartPredictor,
    DeepPredictor,
    LinearPredictor,
    PolynomialPredictor,
    make_predictor,
    predictor_names,
)
from repro.errors import NotTrainedError, TrainingError
from repro.machine.specs import get_accelerator

GPU = get_accelerator("gtx750ti")
PHI = get_accelerator("xeonphi7120p")


def toy_dataset(n=120, seed=0):
    """A learnable synthetic mapping: the accel bit follows feature 5
    (B6, FP share) and one knob follows feature 13 (I1)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, NUM_FEATURES))
    y = np.zeros((n, NUM_TARGETS))
    y[:, 0] = (x[:, 5] > 0.5).astype(float)
    y[:, 1] = x[:, 13]
    y[:, 8] = 1.0 - x[:, 13]
    return x, y


ALL_LEARNED = [
    LinearPredictor,
    PolynomialPredictor,
    AdaptiveLibraryPredictor,
    CartPredictor,
    lambda: DeepPredictor(16, epochs=150, seed=0),
]


class TestLearnedPredictorContract:
    @pytest.mark.parametrize("factory", ALL_LEARNED)
    def test_fit_predict_shapes(self, factory):
        predictor = factory()
        x, y = toy_dataset()
        predictor.fit(x, y)
        out = predictor.predict_vector(x[0])
        assert out.shape == (NUM_TARGETS,)
        assert np.all((out >= 0.0) & (out <= 1.0))

    @pytest.mark.parametrize("factory", ALL_LEARNED)
    def test_batch_prediction(self, factory):
        predictor = factory()
        x, y = toy_dataset()
        predictor.fit(x, y)
        out = predictor.predict_vector(x[:10])
        assert out.shape == (10, NUM_TARGETS)

    @pytest.mark.parametrize("factory", ALL_LEARNED)
    def test_predict_before_fit_raises(self, factory):
        with pytest.raises(NotTrainedError):
            factory().predict_vector(np.zeros(NUM_FEATURES))

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            LinearPredictor().fit(
                np.zeros((0, NUM_FEATURES)), np.zeros((0, NUM_TARGETS))
            )

    def test_mismatched_rows_rejected(self):
        with pytest.raises(TrainingError):
            LinearPredictor().fit(
                np.zeros((5, NUM_FEATURES)), np.zeros((4, NUM_TARGETS))
            )


class TestLearnability:
    @pytest.mark.parametrize(
        "factory",
        [
            LinearPredictor,
            PolynomialPredictor,
            CartPredictor,
            lambda: DeepPredictor(32, epochs=300, seed=0),
        ],
    )
    def test_learns_accel_bit(self, factory):
        predictor = factory()
        x_train, y_train = toy_dataset(seed=0)
        x_test, y_test = toy_dataset(seed=1)
        predictor.fit(x_train, y_train)
        predicted = predictor.predict_vector(x_test)[:, 0] >= 0.5
        actual = y_test[:, 0] >= 0.5
        accuracy = float(np.mean(predicted == actual))
        assert accuracy > 0.85

    def test_deep_learns_continuous_knob(self):
        predictor = DeepPredictor(64, epochs=400, seed=0)
        x_train, y_train = toy_dataset(n=300, seed=0)
        x_test, y_test = toy_dataset(n=100, seed=1)
        predictor.fit(x_train, y_train)
        error = np.abs(
            predictor.predict_vector(x_test)[:, 1] - y_test[:, 1]
        ).mean()
        assert error < 0.12

    def test_deep_deterministic_for_seed(self):
        x, y = toy_dataset()
        a = DeepPredictor(16, epochs=50, seed=5)
        b = DeepPredictor(16, epochs=50, seed=5)
        a.fit(x, y)
        b.fit(x, y)
        probe = np.full(NUM_FEATURES, 0.5)
        assert np.allclose(a.predict_vector(probe), b.predict_vector(probe))

    def test_cart_depth_bounded(self):
        predictor = CartPredictor(max_depth=3, min_samples=4)
        x, y = toy_dataset(n=200)
        predictor.fit(x, y)
        assert predictor.depth() <= 3


class TestAnalyticalWrapper:
    def test_no_training_needed(self):
        predictor = AnalyticalTreePredictor(GPU, PHI)
        predictor.fit(np.zeros((1, 1)), np.zeros((1, 1)))  # no-op
        from repro.core.encoding import encode_features
        from repro.features.ivars import ivars_from_meta
        from repro.features.profiles import get_profile
        from repro.graph.datasets import get_dataset

        features = encode_features(
            get_profile("sssp_bf"),
            ivars_from_meta(get_dataset("usa-cal").paper),
        )
        out = predictor.predict_vector(features)
        assert out.shape == (NUM_TARGETS,)
        assert out[0] == 0.0  # GPU per Figure 7

    def test_predict_config_matches_tree(self):
        from repro.core.decision_tree import decision_tree_predict
        from repro.features.ivars import ivars_from_meta
        from repro.features.profiles import get_profile
        from repro.graph.datasets import get_dataset

        spec, config, _ = decision_tree_predict(
            get_profile("sssp_delta"),
            ivars_from_meta(get_dataset("usa-cal").paper),
            GPU,
            PHI,
        )
        assert spec.name == PHI.name
        assert config.cores == 7


class TestFactory:
    def test_all_names_constructible(self):
        for name in predictor_names():
            predictor = make_predictor(name, GPU, PHI)
            assert predictor is not None

    def test_decision_tree_needs_pair(self):
        with pytest.raises(ValueError):
            make_predictor("decision_tree")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_predictor("gbm")

    def test_unsupported_deep_size(self):
        with pytest.raises(ValueError):
            make_predictor("deep999")

    def test_deep_names(self):
        assert make_predictor("deep128").name == "deep128"

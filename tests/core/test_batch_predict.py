"""Batch-vs-scalar equivalence for every registered predictor.

The batched serving path is only sound if ``predict_batch`` agrees with a
looped ``predict_vector``: exactly for the tree models (whose outputs the
decision cache memoizes bit-for-bit), and to float tolerance for the
learned models (whose matrix pass may round BLAS sums differently from a
row pass by a few ULP).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision_tree import decision_tree_predict
from repro.core.encoding import NUM_FEATURES, encode_config, encode_features
from repro.core.predictors import (
    AnalyticalTreePredictor,
    LearnedPredictor,
    make_predictor,
    predictor_names,
)
from repro.core.training import build_training_database
from repro.errors import NotTrainedError
from repro.experiments.common import BENCHMARK_ORDER, DATASET_ORDER
from repro.features.bvars import BVariables
from repro.features.ivars import IVariables, ivars_from_meta
from repro.features.profiles import get_profile
from repro.graph.datasets import get_dataset
from repro.machine.specs import get_accelerator

GPU = get_accelerator("gtx750ti")
PHI = get_accelerator("xeonphi7120p")

#: Models whose batched pass must be bit-identical to the scalar one.
EXACT_PREDICTORS = {"decision_tree", "cart"}
FLOAT_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def database():
    return build_training_database(GPU, PHI, num_samples=40, seed=11)


@pytest.fixture(scope="module")
def feature_matrix():
    """A lattice-like feature batch with normalized phase columns."""
    rng = np.random.default_rng(29)
    features = np.round(rng.random((120, NUM_FEATURES)), 1)
    totals = features[:, :5].sum(axis=1)
    totals[totals == 0] = 1.0
    features[:, :5] /= totals[:, None]
    return features


def _ready_predictor(name, database):
    predictor = make_predictor(name, GPU, PHI, seed=0)
    if isinstance(predictor, LearnedPredictor):
        predictor.fit(*database.matrices())
    return predictor


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("name", predictor_names())
    def test_batch_matches_looped_scalar(self, name, database, feature_matrix):
        predictor = _ready_predictor(name, database)
        batch = predictor.predict_batch(feature_matrix)
        scalar = np.vstack(
            [predictor.predict_vector(row) for row in feature_matrix]
        )
        assert batch.shape == scalar.shape
        if name in EXACT_PREDICTORS:
            assert np.array_equal(batch, scalar)
        else:
            assert np.max(np.abs(batch - scalar)) <= FLOAT_TOLERANCE

    @pytest.mark.parametrize("name", predictor_names())
    def test_single_row_batch_matches_full_batch(
        self, name, database, feature_matrix
    ):
        """Row i of a big batch equals a batch of just row i."""
        predictor = _ready_predictor(name, database)
        batch = predictor.predict_batch(feature_matrix)
        for row in (0, 17, 63):
            single = predictor.predict_batch(feature_matrix[row : row + 1])[0]
            if name in EXACT_PREDICTORS:
                assert np.array_equal(single, batch[row])
            else:
                assert np.max(np.abs(single - batch[row])) <= FLOAT_TOLERANCE


class TestBatchValidation:
    def test_empty_batch(self, database):
        predictor = _ready_predictor("cart", database)
        result = predictor.predict_batch(
            np.empty((0, NUM_FEATURES), dtype=np.float64)
        )
        assert result.shape[0] == 0

    def test_wrong_width_rejected(self, database):
        predictor = _ready_predictor("linear", database)
        with pytest.raises(ValueError):
            predictor.predict_batch(np.zeros((4, NUM_FEATURES - 1)))

    def test_one_dimensional_rejected(self, database):
        predictor = _ready_predictor("deep16", database)
        with pytest.raises(ValueError):
            predictor.predict_batch(np.zeros(NUM_FEATURES))

    def test_untrained_learner_raises(self):
        predictor = make_predictor("deep32")
        with pytest.raises(NotTrainedError):
            predictor.predict_batch(np.zeros((2, NUM_FEATURES)))


def _table1_features() -> np.ndarray:
    """The 81 Table I benchmark-input feature rows."""
    return np.vstack(
        [
            encode_features(
                get_profile(benchmark), ivars_from_meta(get_dataset(dataset).paper)
            )
            for benchmark in BENCHMARK_ORDER
            for dataset in DATASET_ORDER
        ]
    )


class TestAnalyticalIsPaperModel:
    def test_matches_hand_built_model(self, feature_matrix):
        """Every analytical vector is exactly the Section IV scalar model
        (tree walk + equations + encode_config) on the repaired row."""
        predictor = AnalyticalTreePredictor(GPU, PHI)
        for features in (feature_matrix, _table1_features()):
            batch = predictor.predict_batch(features)
            for row, prediction in zip(features, batch):
                values = [float(v) for v in row[:13]]
                total = sum(values[:5])
                if total > 0:
                    values[:5] = [v / total for v in values[:5]]
                else:
                    values[0] = 1.0
                bvars = BVariables(*values)
                ivars = IVariables(*[float(v) for v in row[13:17]])
                _, config, _ = decision_tree_predict(bvars, ivars, GPU, PHI)
                assert np.array_equal(prediction, encode_config(config, GPU, PHI))

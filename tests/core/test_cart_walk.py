"""CART's per-row walk against a descent of its fitted node tree.

CART walks each row down its flattened node lists in Python.  Every row
must land on the leaf that descending the fit's ``_Node`` objects
reaches, and every entry point must give a row the same arrays alone as
inside a batch, for rows holding NaN, ±inf, ``-0.0`` and values equal to
a node's threshold or the floats either side of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import NUM_FEATURES
from repro.core.predictors.tree_learner import CartPredictor
from repro.validation.cart import check_descents, random_cart_matrices

#: One request, a fleet batch and a server flush.
SIZES = (1, 27, 256)

TREES = ("retrain", "single-leaf") + tuple(f"fuzz-{seed}" for seed in range(6))

EDGE_VALUES = (np.nan, np.inf, -np.inf, -0.0)


def probe_rows(predictor: CartPredictor, features: np.ndarray) -> np.ndarray:
    """At least 256 rows of 17 columns: the training rows plus edge rows.

    Each split node gives copies of the first training row with the
    node's feature at its threshold, at the float either side of it and
    at each edge value; four more rows hold one edge value throughout.
    Rows are shuffled (seeded), so batches mix edge and training rows,
    and zero-padded to 17 columns, which the tree never reads.
    """
    first = features[0]
    edges = [np.full_like(first, value) for value in EDGE_VALUES]
    for feature, threshold in zip(predictor._node_feature, predictor._node_threshold):
        if feature < 0:
            continue
        below, above = np.nextafter(threshold, -np.inf), np.nextafter(threshold, np.inf)
        for value in (threshold, below, above, *EDGE_VALUES):
            row = first.copy()
            row[feature] = value
            edges.append(row)
    rows = np.vstack(edges + [features[:300]])
    rows = rows[np.random.default_rng(0).permutation(len(rows))]
    rows = np.vstack([rows] * -(-256 // len(rows)))
    padding = np.zeros((len(rows), NUM_FEATURES - rows.shape[1]))
    return np.hstack([rows, padding])


@pytest.fixture(scope="module", params=TREES)
def tree(request):
    """A fitted tree and its probe rows."""
    name = request.param
    if name == "retrain":
        features, targets = request.getfixturevalue("retrain_matrices")
        predictor = CartPredictor()
    elif name == "single-leaf":
        rng = np.random.default_rng(1)
        features, targets = rng.random((15, NUM_FEATURES)), rng.random((15, 3))
        predictor = CartPredictor()
    else:
        rng = np.random.default_rng(int(name.removeprefix("fuzz-")))
        features, targets, settings, _ = random_cart_matrices(rng)
        predictor = CartPredictor(**settings)
    predictor.fit(features, targets)
    if name == "single-leaf":
        assert predictor.depth() == 0
    if name == "retrain":
        assert predictor.depth() > 1
    return predictor, probe_rows(predictor, features)


class TestWalk:
    def test_walk_lands_where_the_node_tree_does(self, tree):
        predictor, rows = tree
        assert np.isnan(rows).any() and np.isinf(rows).any()
        check_descents(predictor, rows)

    @pytest.mark.parametrize("size", SIZES)
    def test_entry_points_give_each_row_its_own_arrays(self, tree, size):
        """``predict_batch`` and ``confidence_batch`` on a batch equal
        ``predict_vector`` and one-row ``confidence_batch`` row by row."""
        predictor, rows = tree
        batch = rows[:size]
        report = predictor.confidence_batch(batch)
        alone = [predictor.confidence_batch(row[None]) for row in batch]
        for field in ("confidence", "uncertainty"):
            want = np.concatenate([getattr(one, field) for one in alone])
            assert np.array_equal(getattr(report, field), want)
        vectors = np.array([predictor.predict_vector(row) for row in batch])
        assert np.array_equal(predictor.predict_batch(batch), vectors)

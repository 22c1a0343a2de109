"""CART's per-row walk down the node tree its fit builds.

Each row walks the fitted ``_Node`` objects in Python with the fit's own
comparison, ``row[feature] <= threshold``: a row at a split's threshold
goes left, NaN goes right and ``-0.0`` goes where ``0.0`` does.  Every
entry point must give a row the same arrays alone as inside a batch, for
rows holding NaN, ±inf, ``-0.0`` and values equal to a node's threshold
or the floats either side of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import NUM_FEATURES
from repro.core.predictors.tree_learner import CartPredictor
from repro.validation.cart import random_cart_matrices

#: One request, a fleet batch and a server flush.
SIZES = (1, 27, 256)

TREES = ("retrain", "single-leaf") + tuple(f"fuzz-{seed}" for seed in range(6))

EDGE_VALUES = (np.nan, np.inf, -np.inf, -0.0)


def splits(node) -> list[tuple[int, float]]:
    """Every split node's ``(feature, threshold)``, in preorder."""
    if node.is_leaf:
        return []
    return [(node.feature, node.threshold), *splits(node.left), *splits(node.right)]


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
    for feature, threshold in splits(predictor._root):
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
    def test_ties_go_left_and_nan_goes_right(self):
        """On a depth-1 tree, a row at the threshold predicts the left
        leaf's mean, a NaN row the right leaf's, and ``-0.0`` what ``0.0``
        predicts; the means come from the fit's own partition."""
        rng = np.random.default_rng(2)
        features = rng.integers(0, 11, size=(60, NUM_FEATURES)) / 10.0
        features[::2, 3] = 0.0
        targets = np.column_stack(
            [features[:, 3] > 0.0, rng.random(60)]
        ).astype(np.float64)
        predictor = CartPredictor(max_depth=1)
        predictor.fit(features, targets)
        root = predictor._root
        assert predictor.depth() == 1 and (root.feature, root.threshold) == (3, 0.05)
        left = features[:, root.feature] <= root.threshold
        rows = np.repeat(features[:1], 4, axis=0)
        rows[:, root.feature] = (root.threshold, np.nan, -0.0, 0.0)
        got = predictor.predict_batch(rows)
        assert np.array_equal(got[0], targets[left].mean(axis=0))
        assert np.array_equal(got[1], targets[~left].mean(axis=0))
        assert not np.array_equal(got[0], got[1])
        assert np.array_equal(got[2], got[3])

    @pytest.mark.parametrize("size", SIZES)
    def test_entry_points_give_each_row_its_own_arrays(self, tree, size):
        """``predict_batch`` and ``confidence_batch`` on a batch equal
        ``predict_vector`` and one-row ``confidence_batch`` row by row."""
        predictor, rows = tree
        batch = rows[:size]
        alone = [predictor.confidence_batch(row[None]) for row in batch]
        assert np.array_equal(
            predictor.confidence_batch(batch), np.concatenate(alone)
        )
        vectors = np.array([predictor.predict_vector(row) for row in batch])
        assert np.array_equal(predictor.predict_batch(batch), vectors)

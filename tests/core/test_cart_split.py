"""The screened CART split search against the per-candidate loop.

Every fit goes through :func:`repro.validation.cart.check_cart_fit`: a
screened :class:`CartPredictor` and a
:class:`~repro.validation.cart.ReferenceCart` (the loop over every
candidate) must agree by ``np.array_equal`` on each ``_node_*`` and
``_leaf_*`` array, and at every node of the reference tree its split must
be in the screen's shortlist; either failure raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predictors import tree_learner
from repro.core.predictors.tree_learner import (
    CartPredictor,
    best_split,
    screen_splits,
)
from repro.validation.cart import TREE_ARRAYS, check_cart_fit, reference_split


def grid(rng, rows, columns):
    """Features on the encoder's 0.1 grid."""
    return rng.integers(0, 11, size=(rows, columns)) / 10.0


class TestFittedArrays:
    def test_compared_arrays_cover_every_fitted_array(self):
        rng = np.random.default_rng(0)
        predictor = CartPredictor()
        predictor.fit(grid(rng, 40, 3), rng.random((40, 2)))
        fitted = {
            name
            for name in vars(predictor)
            if name.startswith(("_node_", "_leaf_"))
        }
        assert fitted == set(TREE_ARRAYS)


class TestBitIdentity:
    def test_retrain_matrices(self, retrain_matrices):
        features, targets = retrain_matrices
        assert features.shape[0] > 80  # base rows plus the replicated buffer
        screened, reference = check_cart_fit(features, targets)
        assert screened.depth() > 1
        assert reference.searches > 1 and reference.missed == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_features(self, seed):
        rng = np.random.default_rng(seed)
        check_cart_fit(grid(rng, 200, 17), rng.random((200, 11)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_continuous_features(self, seed):
        rng = np.random.default_rng(seed)
        check_cart_fit(rng.random((120, 4)), rng.random((120, 5)))

    def test_half_thousandth_features(self):
        """Half-thousandths round half-to-even, so some values sit past the
        midpoint after their own rounded value: left counts must come from
        the unrounded column, as the loop's mask takes them."""
        rng = np.random.default_rng(3)
        features = rng.integers(0, 80, size=(150, 3)) / 2000.0
        column, rounded = features[:, 0], np.round(features[:, 0], 3)
        distinct = np.unique(rounded)
        assert any(
            np.count_nonzero(column <= threshold)
            != np.count_nonzero(rounded <= threshold)
            for threshold in (distinct[:-1] + distinct[1:]) / 2.0
        )
        check_cart_fit(features, rng.random((150, 3)), min_samples=2)

    def test_duplicate_columns_earlier_feature_wins(self):
        rng = np.random.default_rng(4)
        base = grid(rng, 150, 4)
        features = np.column_stack([base, base[:, 1]])
        screened, _ = check_cart_fit(features, rng.random((150, 6)))
        assert 1 in screened._node_feature
        assert 4 not in screened._node_feature

    def test_mirrored_columns_earlier_feature_wins(self):
        """``x`` and ``1 - x`` split the same rows, summed in opposite
        orders: the screen scores them apart, the exact scores tie."""
        rng = np.random.default_rng(5)
        column = rng.integers(0, 11, size=160) / 10.0
        features = np.column_stack([column, 1.0 - column])
        targets = rng.random((160, 4))
        assert {feature for feature, _ in screen_splits(features, targets, 8)} == {0, 1}
        screened, _ = check_cart_fit(features, targets)
        assert 0 in screened._node_feature
        assert 1 not in screened._node_feature

    def test_replicated_rows(self):
        rng = np.random.default_rng(6)
        features, targets = grid(rng, 100, 17), rng.random((100, 11))
        check_cart_fit(
            np.vstack([features] + [features[:24]] * 4),
            np.vstack([targets] + [targets[:24]] * 4),
        )

    def test_large_target_offset_widens_the_shortlist(self):
        rng = np.random.default_rng(7)
        features, spread = grid(rng, 120, 6), rng.random((120, 3)) * 1e-3
        offset = 1e4 + spread
        assert len(screen_splits(features, offset, 8)) > len(
            screen_splits(features, spread, 8)
        )
        check_cart_fit(features, offset)

    def test_constant_column_never_splits(self):
        rng = np.random.default_rng(8)
        features = grid(rng, 120, 3)
        features[:, 1] = 0.5
        targets = rng.random((120, 4))
        assert all(feature != 1 for feature, _ in screen_splits(features, targets, 1))
        screened, _ = check_cart_fit(features, targets)
        assert 1 not in screened._node_feature

    def test_fewer_rows_than_two_leaves(self):
        rng = np.random.default_rng(9)
        screened, reference = check_cart_fit(grid(rng, 15, 5), rng.random((15, 3)))
        assert screened.depth() == 0
        assert reference.searches == 0

    def test_every_candidate_fails_min_samples(self):
        features = np.zeros((20, 2))
        features[0, 0] = 1.0  # the only split leaves one row on the right
        targets = np.random.default_rng(10).random((20, 2))
        assert screen_splits(features, targets, 8) == []
        assert reference_split(features, targets, 8) is None
        screened, _ = check_cart_fit(features, targets)
        assert screened.depth() == 0

    def test_max_depth_one(self):
        rng = np.random.default_rng(11)
        screened, _ = check_cart_fit(grid(rng, 100, 8), rng.random((100, 4)), max_depth=1)
        assert screened.depth() == 1


class TestScreen:
    def test_shortlist_runs_feature_then_threshold(self):
        rng = np.random.default_rng(13)
        features = np.column_stack([grid(rng, 200, 3)] * 2)
        shortlist = screen_splits(features, rng.random((200, 2)), 4)
        assert shortlist == sorted(shortlist)

    def test_best_split_needs_a_gain_over_the_parent(self):
        features = np.repeat(np.arange(4) / 10.0, 8).reshape(-1, 1)
        flat = np.ones((32, 2))
        assert best_split(features, flat, screen_splits(features, flat, 8)) is None


class TestEarlyExits:
    """A pure node and a certified single candidate skip the exact pass;
    trees stay equal to the reference's."""

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_lone_candidate_without_gain_stays_a_leaf(self, offset):
        """Both sides hold the same rows, so the one candidate's exact
        score is the parent's: the screen cannot certify it.  At a 1e4
        offset rounding alone screens it below ``parent - 1e-12``, so
        only the margin keeps it uncertified."""
        features = np.repeat([0.2, 0.7], 16).reshape(-1, 1)
        targets = offset + np.tile([[0.3, 0.9], [0.6, 0.1]], (16, 1))
        assert len(screen_splits(features, targets, 8)) == 1
        screened, _ = check_cart_fit(features, targets)
        assert screened.depth() == 0

    @pytest.mark.parametrize("delta", [7e-7, 1e-6])
    def test_near_pure_node_above_the_threshold_splits(self, delta):
        """A parent score of a few times 1e-12 is not a pure node."""
        features = np.repeat([0.2, 0.7], 16).reshape(-1, 1)
        targets = np.repeat([[0.5], [0.5 + delta]], 16, axis=0)
        assert 2e-12 < targets.var(axis=0).sum() * 32 < 1e-11
        screened, _ = check_cart_fit(features, targets)
        assert screened.depth() == 1

    def test_refit_shape_takes_both_exits(self, monkeypatch):
        """A base block plus a buffer block stacked four times, targets on
        the 0.1 grid, as the online adapter refits.  Base rows take one of
        three target rows, picked by two features, as the training
        database's oracle configs repeat."""
        rng = np.random.default_rng(0)
        palette = rng.integers(0, 11, size=(3, 11)) / 10.0
        base, buffer = grid(rng, 120, 17), grid(rng, 32, 17)
        base_targets = palette[(base[:, 0] > 0.4) + (base[:, 1] > 0.6).astype(int)]
        buffer_targets = rng.integers(0, 11, size=(32, 11)) / 10.0
        features = np.vstack([base] + [buffer] * 4)
        targets = np.vstack([base_targets] + [buffer_targets] * 4)

        splits, shortlists, rescored = [], [], []
        split, screen, best = CartPredictor._split, tree_learner._screen, best_split

        def counted_split(self, *args):
            splits.append(1)
            return split(self, *args)

        def counted_screen(*args):
            result = screen(*args)
            shortlists.append(len(result[0]))
            return result

        def counted_best(features, targets, candidates):
            rescored.append(len(candidates))
            return best(features, targets, candidates)

        monkeypatch.setattr(CartPredictor, "_split", counted_split)
        monkeypatch.setattr(tree_learner, "_screen", counted_screen)
        monkeypatch.setattr(tree_learner, "best_split", counted_best)
        CartPredictor().fit(features, targets)
        monkeypatch.undo()
        pure = len(splits) - len(shortlists)
        certified = shortlists.count(1) - rescored.count(1)
        assert pure > 0 and certified > 0
        check_cart_fit(features, targets)

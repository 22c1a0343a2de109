"""Learned CART regression tree (extension beyond the paper).

Table IV's "Decision Tree" row is the hand-built Section IV model; this
module adds the natural follow-up the paper leaves as future work
("other thresholds may also work by fine tuning") — a CART tree *learned*
from the same training database, so the threshold-tuning question can be
studied empirically (see the ablation benchmark).  Single-output-mean leaf
model, variance-reduction splits, from scratch.

Each node's split is chosen in two steps: :func:`screen_splits` scores
every (feature, threshold) candidate at once from prefix sums and keeps
the few within a rounding bound of the best, then
:func:`best_split` scores those exactly, in the same order and with the
same expression as a per-candidate loop over all of them.  A pure node
and a shortlist of one candidate that clears the node's own score by the
rounding margin skip the exact step, with the answer it would give.
Trees are therefore bit-identical to that loop (kept as the test
reference in :mod:`repro.validation.cart`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predictors.base import LearnedPredictor
from repro.core.predictors.confidence import ConfidenceReport

__all__ = ["CartPredictor", "best_split", "screen_splits"]

#: Safety factor on the first-order rounding bound derived in
#: :func:`screen_splits`; it covers the second-order terms the derivation
#: drops and the rounding of the bound's own arithmetic.
_BOUND_SAFETY = 4.0

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def screen_splits(
    features: np.ndarray, targets: np.ndarray, min_samples: int
) -> list[tuple[int, float]]:
    """The candidates that can win this node's split, in search order.

    Candidates are the midpoints between consecutive distinct values of
    each column rounded to 3 decimals; a candidate's left side is every
    row whose *unrounded* value is at most its threshold, and both sides
    need ``min_samples`` rows.  The returned list runs feature by
    feature with thresholds rising, and holds every candidate whose
    screened score is within the rounding bound of the screened minimum.

    Sorting a column puts each candidate's left side first, so its sum of
    squared deviations is ``Q - |S|**2 / m`` from running sums ``S`` of
    the targets and ``Q`` of their squared norms; the right side's sums
    are the running sums' totals minus the left's.  One array expression
    scores every candidate of every column.

    The bound.  Let ``u`` be the unit roundoff, ``n`` the node's rows,
    ``K`` the outputs and ``Y`` the sum of the node's squared targets;
    a side has ``m`` rows and squared sum ``Y_m``.  To first order in
    ``u``:

    * screened left side: ``Q`` is off by ``(m + K) u Y_m`` (row norms,
      then a running sum); each ``S_k`` by ``m u sum|y_k|``, so
      ``|S|**2 / m`` by ``(2m + K + 1) u Y_m`` using ``(sum|y_k|)**2 <=
      m sum y_k**2``; the subtraction adds ``u Y_m``.
    * screened right side: a total minus a left value of the same
      running sum is off only by the roundings of the additions past the
      left side, each ``u`` times a partial sum, so ``Q`` is off by
      ``(m + K + 1) u Y`` and ``S_k`` by ``m u sum|y_k|`` over all rows;
      with ``|S_k| <= sqrt(m sum_right y_k**2)`` and ``sum|y_k| <=
      sqrt(n sum y_k**2)``, ``|S|**2 / m`` is off by ``(2n + K + 3) u Y``.
      Both sides plus their sum: ``(6n + 4K + 8) u Y``.
    * exact (``var(axis=0).sum() * m``, a two-pass variance): the sum of
      squared deviations about the computed mean is off by
      ``(m + K + 3) u Y_m``; the mean's own error ``e`` adds ``m e**2 <=
      (m u)**2 Y_m``, below ``u Y_m`` for any ``n < 2**26``.  Both sides
      plus their sum: ``(n + 2K + 9) u Y``.

    So every candidate's screened and exact scores differ by at most
    ``E = 7 (n + K + 3) u Y``.  The exact winner ``w`` then screens at
    ``screen(w) <= exact(w) + E <= exact(s) + E <= screen(s) + 2E`` for
    the screened minimum ``s``, so keeping every candidate within ``2E``
    of the screened minimum keeps ``w``, and :func:`best_split`'s exact
    pass over the shortlist picks what a pass over every candidate picks.
    The screen keeps a window ``bound = 8E`` (``_BOUND_SAFETY`` times
    ``2E``).

    Two searches need no exact pass.  Let ``floor`` be ``parent -
    1e-12`` computed as :func:`best_split` computes it, so both compare
    against the same float: a candidate wins only if its exact score is
    below ``floor``.

    * Pure node, ``floor <= 0``: no candidate wins, because an exact
      score adds two variances times row counts, none of them negative.
    * Certified single candidate: every candidate tied at the exact
      minimum screens within ``2E`` of ``s``, so a lone kept candidate
      ``c`` is the only exact minimum, and it wins iff ``exact(c) <
      floor``.  If the float sum ``screen(c) + 2 bound`` is below
      ``floor``, it does: the sum is ``screen(c) + 16E`` to within ``u
      (|screen(c)| + 16E)``, which is below ``E`` since ``|screen(c)| <=
      Y + E``, so ``exact(c) <= screen(c) + E < sum < floor``.  The
      margin ``2 bound`` carries the keep window's safety factor over
      ``E``.
    """
    return _screen(features, targets, min_samples)[0]


def _screen(
    features: np.ndarray, targets: np.ndarray, min_samples: int
) -> tuple[list[tuple[int, float]], np.ndarray, float]:
    """:func:`screen_splits`' shortlist, the kept candidates' screened
    scores and the keep window ``bound``."""
    rows, outputs = targets.shape
    order = np.argsort(features, axis=0)
    values = np.take_along_axis(features, order, axis=0)
    rounded = np.round(values, 3)  # monotone, so sorted like ``values``
    feature, position = np.nonzero((rounded[1:] != rounded[:-1]).T)
    thresholds = (rounded[position, feature] + rounded[position + 1, feature]) / 2.0
    n_left = position + 1
    # A value rounded at a half-way point can sit on the far side of its
    # own midpoint; count those candidates' left sides from the column.
    for stray in np.flatnonzero(
        (values[position, feature] > thresholds)
        | (values[position + 1, feature] <= thresholds)
    ):
        n_left[stray] = np.count_nonzero(
            features[:, feature[stray]] <= thresholds[stray]
        )
    valid = (n_left >= min_samples) & (rows - n_left >= min_samples)
    feature, thresholds, n_left = feature[valid], thresholds[valid], n_left[valid]
    if not feature.size:
        return [], np.empty(0), 0.0
    norms = (targets * targets).sum(axis=1)
    sums = targets[order]  # summed in place: the node's largest array
    np.cumsum(sums, axis=0, out=sums)
    left, right = sums[n_left - 1, feature], sums[-1, feature]
    right -= left
    sums = norms[order]
    np.cumsum(sums, axis=0, out=sums)
    left_norms, right_norms = sums[n_left - 1, feature], sums[-1, feature]
    right_norms -= left_norms
    screened = (left_norms - (left * left).sum(axis=1) / n_left) + (
        right_norms - (right * right).sum(axis=1) / (rows - n_left)
    )
    bound = (
        _BOUND_SAFETY * 14.0 * (rows + outputs + 3) * _UNIT_ROUNDOFF * norms.sum()
    )
    keep = np.flatnonzero(screened <= screened.min() + bound)
    shortlist = [(int(feature[c]), float(thresholds[c])) for c in keep]
    return shortlist, screened[keep], bound


def best_split(
    features: np.ndarray,
    targets: np.ndarray,
    candidates: list[tuple[int, float]],
) -> tuple[int, float] | None:
    """The first candidate with the lowest exact score, if it beats the
    node's own score by more than 1e-12; ``None`` makes the node a leaf."""
    rows = features.shape[0]
    parent_score = targets.var(axis=0).sum() * rows
    best = (None, None, parent_score - 1e-12)
    for feature, threshold in candidates:
        mask = features[:, feature] <= threshold
        n_left = int(mask.sum())
        score = (
            targets[mask].var(axis=0).sum() * n_left
            + targets[~mask].var(axis=0).sum() * (rows - n_left)
        )
        if score < best[2]:
            best = (feature, threshold, score)
    feature, threshold, _ = best
    return None if feature is None else (feature, threshold)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: np.ndarray | None = None  # leaf payload
    spread: float = 0.0  # leaf M1 std (purity signal)
    count: int = 0  # leaf training population

    @property
    def is_leaf(self) -> bool:
        """Whether this node carries a leaf payload."""
        return self.value is not None


class CartPredictor(LearnedPredictor):
    """Multi-output CART regression tree."""

    name = "cart"

    # Each row walks the tree on its own, so its leaf vector never
    # depends on its batch mates.
    batch_shape_independent = True

    def __init__(self, *, max_depth: int = 8, min_samples: int = 8) -> None:
        super().__init__()
        if max_depth < 1 or min_samples < 1:
            raise ValueError("max_depth and min_samples must be positive")
        self.max_depth = int(max_depth)
        self.min_samples = int(min_samples)
        self._root: _Node | None = None
        # Flattened tree (built by _flatten) for the per-row walk.
        self._node_feature: list[int] = []
        self._node_threshold: list[float] = []
        self._node_left: list[int] = []
        self._node_right: list[int] = []
        self._node_leaf: list[int] = []
        self._leaf_values = np.empty((0, 0), dtype=np.float64)
        self._leaf_spread = np.empty(0, dtype=np.float64)
        self._leaf_count = np.empty(0, dtype=np.int64)

    #: Leaf uncertainty at which confidence crosses 0.5.
    CONFIDENCE_SCALE = 0.1
    #: Weight of the small-population term in leaf uncertainty.
    POPULATION_WEIGHT = 0.5

    def _build(
        self, features: np.ndarray, targets: np.ndarray, depth: int
    ) -> _Node:
        if depth >= self.max_depth or features.shape[0] < 2 * self.min_samples:
            return self._leaf(targets)
        split = self._split(features, targets)
        if split is None:
            return self._leaf(targets)
        feature, threshold = split
        mask = features[:, feature] <= threshold
        return _Node(
            feature=feature,
            threshold=float(threshold),
            left=self._build(features[mask], targets[mask], depth + 1),
            right=self._build(features[~mask], targets[~mask], depth + 1),
        )

    def _split(
        self, features: np.ndarray, targets: np.ndarray
    ) -> tuple[int, float] | None:
        """This node's split: the exact best of the screened shortlist.

        A pure node and a certified single candidate return early with
        the answer :func:`best_split` would give (:func:`screen_splits`
        has the argument).
        """
        floor = targets.var(axis=0).sum() * features.shape[0] - 1e-12
        if floor <= 0.0:
            return None
        shortlist, scores, bound = _screen(features, targets, self.min_samples)
        if len(shortlist) == 1 and scores[0] + 2.0 * bound < floor:
            return shortlist[0]
        return best_split(features, targets, shortlist)

    @staticmethod
    def _leaf(targets: np.ndarray) -> _Node:
        """A leaf with its prediction plus purity/population statistics."""
        return _Node(
            value=targets.mean(axis=0),
            spread=float(targets[:, 0].std()),
            count=int(targets.shape[0]),
        )

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        self._root = self._build(features, targets, depth=0)
        self._flatten()

    def _flatten(self) -> None:
        """Lower the node tree into parallel lists for the per-row walk.

        ``_node_feature[i]``/``_node_threshold[i]`` describe split node
        ``i``; ``_node_left``/``_node_right`` hold child indices; leaves
        carry ``_node_feature == -1`` and index their payload row in
        ``_leaf_values`` via ``_node_leaf``.
        """
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        leaf: list[int] = []
        leaf_values: list[np.ndarray] = []
        leaf_spread: list[float] = []
        leaf_count: list[int] = []

        def visit(node: _Node) -> int:
            index = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(-1)
            right.append(-1)
            leaf.append(-1)
            if node.is_leaf:
                feature[index] = -1
                leaf[index] = len(leaf_values)
                assert node.value is not None
                leaf_values.append(node.value)
                leaf_spread.append(node.spread)
                leaf_count.append(node.count)
            else:
                assert node.left is not None and node.right is not None
                left[index] = visit(node.left)
                right[index] = visit(node.right)
            return index

        assert self._root is not None
        visit(self._root)
        self._node_feature = feature
        self._node_threshold = threshold
        self._node_left = left
        self._node_right = right
        self._node_leaf = leaf
        self._leaf_values = np.vstack(leaf_values)
        self._leaf_spread = np.asarray(leaf_spread, dtype=np.float64)
        self._leaf_count = np.asarray(leaf_count, dtype=np.int64)

    def _leaf_rows(self, features: np.ndarray) -> np.ndarray:
        """Each row's ``_leaf_values`` row index, walking each row down
        the node lists in Python.

        Each step compares ``value <= threshold`` on float64 values, as
        the fit's partition does, so NaN goes right.
        """
        feature, threshold = self._node_feature, self._node_threshold
        left, right, leaf = self._node_left, self._node_right, self._node_leaf
        landed = []
        for row in features.tolist():
            node = 0
            while (split := feature[node]) >= 0:
                node = left[node] if row[split] <= threshold[node] else right[node]
            landed.append(leaf[node])
        return np.array(landed, dtype=np.int64)

    def _predict(self, features: np.ndarray) -> np.ndarray:
        return self._leaf_values[self._leaf_rows(features)]

    def _confidence(self, features: np.ndarray) -> ConfidenceReport:
        """Confidence from the landing leaf's purity and population.

        A pure, well-populated leaf (every training row agreed on M1,
        many of them) is near-certain; a mixed or thin leaf is not.
        Uncertainty is the leaf's M1 std plus a ``1/population`` term so
        a unanimous-but-tiny leaf still reads as uncertain.
        """
        rows = self._leaf_rows(features)
        uncertainty = (
            self._leaf_spread[rows]
            + self.POPULATION_WEIGHT / np.maximum(self._leaf_count[rows], 1)
        )
        return ConfidenceReport.from_uncertainty(
            uncertainty, scale=self.CONFIDENCE_SCALE, source="leaf-stats"
        )

    def depth(self) -> int:
        """Actual tree depth after fitting (0 for a single leaf)."""
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

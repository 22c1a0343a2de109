"""Learned CART regression tree (extension beyond the paper).

Table IV's "Decision Tree" row is the hand-built Section IV model; this
module adds the natural follow-up the paper leaves as future work
("other thresholds may also work by fine tuning") — a CART tree *learned*
from the same training database, so the threshold-tuning question can be
studied empirically (see the ablation benchmark).  Single-output-mean leaf
model, variance-reduction splits, from scratch.

Each node's split is chosen in two steps: :func:`screen_splits` scores
every (feature, threshold) candidate at once from prefix sums over the
node's *distinct* rows, each weighted by how often it repeats, and keeps
the few within a rounding bound of the best; then :func:`best_split`
scores those exactly on the node's full rows, in the same order and with
the same expression as a per-candidate loop over all of them.  A refit
stacks a replicated buffer on the training database, so its rows repeat
several times over; the fit finds the distinct rows once, at the root, and
splits them down the tree beside the full rows.  A pure node and a
shortlist of one candidate that clears the node's own score by the
rounding margin skip the exact step, with the answer it would give.
Trees are therefore bit-identical to that loop (kept as the test
reference in :mod:`repro.validation.cart`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predictors.base import LearnedPredictor
from repro.core.predictors.confidence import squash_uncertainty

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

    The screen runs on the node's distinct rows (:func:`_distinct`): a
    row ``y`` repeated ``c`` times enters once, as ``c y``, ``c |y|**2``
    and ``c``.  Sorting a column puts each candidate's left side first,
    so its sum of squared deviations is ``Q - |S|**2 / m`` from running
    sums ``S`` of the weighted targets, ``Q`` of the weighted squared
    norms and ``m`` of the counts; the right side's sums are the running
    sums' totals minus the left's.  One array expression scores every
    candidate of every column.

    The bound.  Let ``u`` be the unit roundoff, ``n`` the node's rows
    counting every copy, ``K`` the outputs and ``Y`` the sum of the
    node's squared targets over all ``n`` rows; a side has ``m`` rows,
    ``m_d`` of them distinct, and squared sum ``Y_m``.  To first order
    in ``u``:

    * weighted running sums: ``|y|**2`` is off by ``K u |y|**2``; a
      product with ``c`` adds one rounding, none when ``c = 1``; a
      running sum of ``m_d`` terms adds ``m_d - 1``, each ``u`` times a
      partial sum of magnitudes.  If a side's row repeats, ``m_d <= m -
      1``; if none does, every ``c`` is 1 and ``m_d = m``.  Either way a
      side's weighted sum is off by at most ``(m - 1) u`` times its
      magnitudes summed over its ``m`` full rows (plus ``K u Y_m`` for
      ``Q``), no worse than summing the full rows one by one.  The counts
      are integers below ``2**53``, so ``m`` and ``n`` are exact.
    * screened left side: so ``Q`` is off by ``(m + K) u Y_m`` and each
      ``S_k`` by ``m u sum|y_k|``; with ``|S_k| <= sum|y_k|`` and
      ``(sum|y_k|)**2 <= m sum y_k**2``, ``|S|**2 / m`` is off by ``(2m
      + K + 1) u Y_m`` (its squares, sum and division adding ``K + 1``),
      and the subtraction adds ``u Y_m``.
    * screened right side: a total minus a left value of the same
      running sum keeps only the roundings past the left side, of the
      side's own terms and of the additions, each ``u`` times a partial
      sum of the node's magnitudes, plus the subtraction's.  Counted as
      in the first bullet, ``Q`` is off by ``(m + K + 1) u Y`` and
      ``S_k`` by ``m u sum|y_k|`` over all ``n`` rows plus ``u |S_k|``.
      With ``|S_k| <= sqrt(m sum_right
      y_k**2)`` and ``sum|y_k| <= sqrt(n sum y_k**2)``, ``|S|**2 / m`` is
      off by ``(2n + K + 3) u Y``.  Both sides plus their sum: ``(6n +
      4K + 8) u Y``.
    * exact (``var(axis=0).sum() * m`` over the side's full rows, a
      two-pass variance): the sum of squared deviations about the
      computed mean is off by ``(m + K + 3) u Y_m``; the mean's own error
      ``e`` adds ``m e**2 <= (m u)**2 Y_m``, below ``u Y_m`` for any ``n
      < 2**26``.  Both sides plus their sum: ``(n + 2K + 9) u Y``.

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
    return _screen(*_distinct(features, targets), min_samples)[0]


def _distinct(
    features: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``[features | targets]``, keyed by their
    float64 bytes with ``-0.0`` folded into ``0.0``, in key order: their
    feature rows, and ``[c y | c |y|**2 | c]`` for their targets ``y``
    and multiplicities ``c``."""
    rows = np.hstack([features, targets]) + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    distinct, counts = rows[first], counts[:, None].astype(np.float64)
    values = distinct[:, features.shape[1]:]
    norms = (values * values).sum(axis=1, keepdims=True)
    weighted = np.hstack([counts * values, counts * norms, counts])
    return distinct[:, : features.shape[1]], weighted


def _screen(
    features: np.ndarray, weighted: np.ndarray, min_samples: int
) -> tuple[list[tuple[int, float]], np.ndarray, float]:
    """:func:`screen_splits`' shortlist, the kept candidates' screened
    scores and the keep window ``bound``, from a node's distinct feature
    rows and their weighted matrix (:func:`_distinct`)."""
    outputs = weighted.shape[1] - 2
    order = np.argsort(features, axis=0)
    values = np.take_along_axis(features, order, axis=0)
    rounded = np.round(values, 3)  # monotone, so sorted like ``values``
    feature, position = np.nonzero((rounded[1:] != rounded[:-1]).T)
    thresholds = (rounded[position, feature] + rounded[position + 1, feature]) / 2.0
    # A value rounded at a half-way point can sit on the far side of its
    # own midpoint; find those candidates' last left row from the column.
    # One with no row on its left reads position -1, the totals, and its
    # empty right side fails ``min_samples``.
    for stray in np.flatnonzero(
        (values[position, feature] > thresholds)
        | (values[position + 1, feature] <= thresholds)
    ):
        position[stray] = (
            np.count_nonzero(features[:, feature[stray]] <= thresholds[stray]) - 1
        )
    sums = weighted[order]  # summed in place: the node's largest array
    np.cumsum(sums, axis=0, out=sums)
    # A side's row of sums: its target sums S, squared-norm sum Q and count m.
    total = sums[-1]
    left = sums[position, feature]
    right = total[feature] - left
    valid = (left[:, -1] >= min_samples) & (right[:, -1] >= min_samples)
    if not valid.any():
        return [], np.empty(0), 0.0
    feature, thresholds = feature[valid], thresholds[valid]
    left, right = left[valid], right[valid]
    screened = (
        left[:, outputs] - (left[:, :outputs] ** 2).sum(axis=1) / left[:, -1]
    ) + (right[:, outputs] - (right[:, :outputs] ** 2).sum(axis=1) / right[:, -1])
    rows, squares = total[0, -1], total[0, outputs]
    bound = _BOUND_SAFETY * 14.0 * (rows + outputs + 3) * _UNIT_ROUNDOFF * squares
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

    #: Leaf uncertainty at which confidence crosses 0.5.
    CONFIDENCE_SCALE = 0.1
    #: Weight of the small-population term in leaf uncertainty.
    POPULATION_WEIGHT = 0.5

    def _build(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        distinct: np.ndarray,
        weighted: np.ndarray,
        depth: int,
    ) -> _Node:
        """The subtree of these rows; ``distinct`` and ``weighted`` are
        their distinct rows as :func:`_distinct` gives them."""
        if depth >= self.max_depth or features.shape[0] < 2 * self.min_samples:
            return self._leaf(targets)
        split = self._split(features, targets, distinct, weighted)
        if split is None:
            return self._leaf(targets)
        feature, threshold = split
        mask = features[:, feature] <= threshold
        # Every copy of a row goes the same way, so each side keeps what
        # deduping it would give, in the same order.
        side = distinct[:, feature] <= threshold
        left, right = (
            self._build(features[m], targets[m], distinct[s], weighted[s], depth + 1)
            for m, s in ((mask, side), (~mask, ~side))
        )
        return _Node(
            feature=feature, threshold=float(threshold), left=left, right=right
        )

    def _split(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        distinct: np.ndarray,
        weighted: np.ndarray,
    ) -> tuple[int, float] | None:
        """This node's split: the exact best, on the full rows, of the
        shortlist screened on the distinct rows.

        A pure node and a certified single candidate return early with
        the answer :func:`best_split` would give (:func:`screen_splits`
        has the argument).
        """
        floor = targets.var(axis=0).sum() * features.shape[0] - 1e-12
        if floor <= 0.0:
            return None
        shortlist, scores, bound = _screen(distinct, weighted, self.min_samples)
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
        self._root = self._build(
            features, targets, *_distinct(features, targets), depth=0
        )

    def _leaves(self, features: np.ndarray) -> list[_Node]:
        """The leaf each row lands on, walking the fitted tree in Python.

        Each step compares ``value <= threshold`` on float64 values, as
        the fit's partition does, so ties go left and NaN goes right.
        """
        landed = []
        for row in features.tolist():
            node = self._root
            while node.value is None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            landed.append(node)
        return landed

    def _predict(self, features: np.ndarray) -> np.ndarray:
        return np.array([leaf.value for leaf in self._leaves(features)])

    def _confidence(self, features: np.ndarray) -> np.ndarray:
        """Confidence from the landing leaf's purity and population.

        A pure, well-populated leaf (every training row agreed on M1,
        many of them) is near-certain; a mixed or thin leaf is not.
        Uncertainty is the leaf's M1 std plus a ``1/population`` term so
        a unanimous-but-tiny leaf still reads as uncertain.
        """
        weight = self.POPULATION_WEIGHT
        uncertainty = [
            leaf.spread + weight / max(leaf.count, 1)
            for leaf in self._leaves(features)
        ]
        return squash_uncertainty(uncertainty, self.CONFIDENCE_SCALE)

    def depth(self) -> int:
        """Actual tree depth after fitting (0 for a single leaf)."""
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

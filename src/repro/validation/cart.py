"""CART fuzz component: the screened split search vs a per-candidate loop.

:class:`~repro.core.predictors.tree_learner.CartPredictor` picks each
node's split by exactly re-scoring the short list
:func:`~repro.core.predictors.tree_learner.screen_splits` keeps.  The
per-candidate loop it replaced, which scores every (feature, threshold)
candidate exactly, stays here as the reference:

* **bit-identity** — a screened fit and a reference fit of the same
  matrices build the same node tree: node by node, each split has the
  same feature and threshold, and each leaf the same ``value``
  (``np.array_equal``, no tolerance), ``spread`` and ``count``;
* **soundness** — at every node of the reference tree, the reference's
  split is inside the screen's shortlist.

Matrices mix 0.1-step columns (as the encoder emits), continuous ones and
half-thousandth ones, plus duplicated and mirrored (``x`` and ``1 - x``)
columns: a mirrored column splits the same rows, summed in the
opposite order, so only a sound rounding bound keeps the earlier feature
winning that tie.  Targets are uniform, 0/1 bits, offset by 1e4, or a
palette: each row takes one of 1–4 target rows on the 0.1 grid, as the
training database's oracle configs repeat.  Palettes give pure nodes
whose parent score is a rounding residue just above zero, and splits
whose sides have equal means, the cases the split search's two early
exits decide.  Some cases copy a block of their first rows up to three
more times, as a refit replicates its buffer.  Those copies, and the
rows grid columns and palette targets repeat, are what the screen
weights: it scores each node's distinct rows once, weighted by their
counts.  Violations raise :class:`OracleMismatchError`, replayable via
the standard ``REPRO_FUZZ_SEED`` one-liner.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import NUM_FEATURES, NUM_TARGETS
from repro.core.predictors.tree_learner import CartPredictor, screen_splits
from repro.errors import OracleMismatchError

__all__ = [
    "MAX_ROWS",
    "ReferenceCart",
    "check_cart_fit",
    "random_cart_matrices",
    "reference_split",
    "run_cart_case",
]

#: Largest matrix a fuzz case fits.
MAX_ROWS = 300


def reference_split(
    features: np.ndarray, targets: np.ndarray, min_samples: int
) -> tuple[int, float] | None:
    """Score every candidate exactly, feature by feature, thresholds
    rising; the first strictly lowest score below the node's own wins."""
    parent_score = targets.var(axis=0).sum() * targets.shape[0]
    best = (None, None, parent_score - 1e-12)
    for feature in range(features.shape[1]):
        column = features[:, feature]
        candidates = np.unique(np.round(column, 3))
        if candidates.size < 2:
            continue
        thresholds = (candidates[:-1] + candidates[1:]) / 2.0
        for threshold in thresholds:
            mask = column <= threshold
            n_left = int(mask.sum())
            if n_left < min_samples or features.shape[0] - n_left < min_samples:
                continue
            score = (
                targets[mask].var(axis=0).sum() * n_left
                + targets[~mask].var(axis=0).sum() * (features.shape[0] - n_left)
            )
            if score < best[2]:
                best = (feature, threshold, score)
    feature, threshold, _ = best
    return None if feature is None else (feature, threshold)


class ReferenceCart(CartPredictor):
    """A CART whose every split comes from :func:`reference_split`.

    Each split search also checks the screen's soundness: ``missed``
    collects every split the reference chose that the screen's shortlist
    for the same node left out.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.searches = 0
        self.missed: list[tuple[int, float]] = []

    def _split(
        self, features: np.ndarray, targets: np.ndarray, *carried: np.ndarray
    ) -> tuple[int, float] | None:
        """The reference split of the node's full rows; the distinct rows
        :meth:`CartPredictor._build` carries beside them go unread, since
        :func:`screen_splits` finds its own from the full rows."""
        split = reference_split(features, targets, self.min_samples)
        self.searches += 1
        if split is not None and split not in screen_splits(
            features, targets, self.min_samples
        ):
            self.missed.append(split)
        return split


def check_cart_fit(
    features: np.ndarray,
    targets: np.ndarray,
    *,
    max_depth: int = 8,
    min_samples: int = 8,
) -> tuple[CartPredictor, ReferenceCart]:
    """Fit screened and reference trees on the same matrices.

    Returns:
        The screened and the reference predictor.

    Raises:
        OracleMismatchError: when a node of the two trees differs, or
            when a reference split was missing from its node's shortlist.
    """
    screened = CartPredictor(max_depth=max_depth, min_samples=min_samples)
    screened.fit(features, targets)
    reference = ReferenceCart(max_depth=max_depth, min_samples=min_samples)
    reference.fit(features, targets)
    if reference.missed:
        raise OracleMismatchError(
            f"screen dropped the reference split {reference.missed[0]!r} "
            f"({len(reference.missed)} of {reference.searches} searches)"
        )
    difference = _first_difference(screened._root, reference._root)
    if difference is not None:
        path, got, want = difference
        raise OracleMismatchError(
            f"screened/reference CART divergence at {path}: "
            f"{_describe(got)} vs {_describe(want)}"
        )
    return screened, reference


def _first_difference(got, want, path: str = "root"):
    """The first node, in preorder, where two fitted trees differ, as
    ``(path, got, want)`` with a path such as ``root.left.right``, or
    ``None``.  Splits compare feature and threshold; leaves compare
    ``value`` (``np.array_equal``), ``spread`` and ``count``."""
    if got.is_leaf or want.is_leaf:
        same = (
            got.is_leaf
            and want.is_leaf
            and np.array_equal(got.value, want.value)
            and got.spread == want.spread
            and got.count == want.count
        )
        return None if same else (path, got, want)
    if (got.feature, got.threshold) != (want.feature, want.threshold):
        return path, got, want
    return _first_difference(
        got.left, want.left, f"{path}.left"
    ) or _first_difference(got.right, want.right, f"{path}.right")


def _describe(node) -> str:
    """One node as a divergence report shows it."""
    if node.is_leaf:
        return (
            f"leaf value={node.value.tolist()!r} spread={node.spread!r} "
            f"count={node.count}"
        )
    return f"split x[{node.feature}] <= {node.threshold!r}"


def _column(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, str]:
    """One feature column: 0.1-step, continuous, or half-thousandths,
    which round half-to-even, so some values sit past the midpoint
    between their own rounded value and the next one."""
    kind = int(rng.integers(0, 4))
    if kind < 2:
        return rng.integers(0, 11, size=rows) / 10.0, "grid"
    if kind == 2:
        return rng.random(rows), "continuous"
    return rng.integers(0, 80, size=rows) / 2000.0, "half-way"


def random_cart_matrices(
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, dict, str]:
    """Seeded training matrices, fit settings and a description."""
    rows = int(rng.integers(2, MAX_ROWS + 1))
    drawn = [_column(rng, rows) for _ in range(int(rng.integers(1, 7)))]
    columns = [column for column, _ in drawn]
    mirrored = int(rng.integers(0, len(columns) + 1))
    columns += [1.0 - column for column in columns[:mirrored]]
    if rng.random() < 0.3:
        columns.append(columns[int(rng.integers(0, len(columns)))].copy())
    if rng.random() < 0.2:
        columns.append(np.full(rows, 0.5))
    order = rng.permutation(len(columns))[:NUM_FEATURES]
    features = np.column_stack([columns[int(i)] for i in order])

    outputs = int(rng.integers(1, NUM_TARGETS + 1))
    shape = int(rng.integers(0, 4))
    if shape == 0:
        targets = rng.random((rows, outputs))
    elif shape == 1:
        targets = rng.integers(0, 2, size=(rows, outputs)).astype(np.float64)
    elif shape == 2:
        targets = 1e4 + rng.random((rows, outputs)) * 1e-3
    else:
        palette = rng.integers(0, 11, size=(int(rng.integers(1, 5)), outputs)) / 10.0
        targets = palette[rng.integers(0, len(palette), size=rows)]
    replicated = ""
    if rng.random() < 0.3:
        block = int(rng.integers(1, rows + 1))
        copies = min(3, (MAX_ROWS - rows) // block)
        features = np.vstack([features] + [features[:block]] * copies)
        targets = np.vstack([targets] + [targets[:block]] * copies)
        replicated = f", first {block} rows copied {copies} more times"
    distinct = len({tuple(row) for row in np.hstack([features, targets]).tolist()})
    settings = {
        "max_depth": int(rng.integers(1, 9)),
        "min_samples": int(rng.integers(1, 13)),
    }
    kinds = "+".join(sorted({kind for _, kind in drawn}))
    description = (
        f"{features.shape[0]}x{features.shape[1]} ({kinds}, {mirrored} "
        f"mirrored{replicated}; {distinct} distinct rows), {outputs} outputs "
        f"({('uniform', 'bits', 'offset 1e4', 'palette')[shape]}), "
        f"depth<={settings['max_depth']}, "
        f"min_samples={settings['min_samples']}"
    )
    return features, targets, settings, description


def run_cart_case(seed: int) -> str:
    """One CART fuzz case: screened vs reference fit on seeded matrices.
    It draws nothing more than the fit, so a recorded ``REPRO_FUZZ_SEED``
    line replays the same case.

    Raises:
        OracleMismatchError: on any violation.
    """
    rng = np.random.default_rng(seed)
    features, targets, settings, description = random_cart_matrices(rng)
    _, reference = check_cart_fit(features, targets, **settings)
    return f"{description}: {reference.searches} split searches"

"""Calibration fuzz component: confidence invariants + bit-identity.

The confidence layer (PR 10) promises three mechanical facts, fuzzed
here under the seeded-replay contract of :mod:`repro.validation.fuzz`:

* **report validity + purity** — for every predictor family, on random
  training data and random 0.1-grid feature rows,
  :meth:`~repro.core.predictors.base.Predictor.confidence_batch` returns
  an ``(n,)`` float64 array of values in [0, 1], deterministic across
  calls, and ``predict_batch`` returns **bit-equal** vectors before and
  after it — computing confidence must never perturb what decodes;
* **coverage monotonicity** — the adaptive library's table-coverage
  confidence is monotone non-decreasing under added training data: a
  model fit on a superset of rows is never *less* confident about any
  probe row (its nearest-neighbour distance can only shrink);
* **exploration-off differential** — a
  :class:`~repro.runtime.engine.decision.DecisionService` with a
  zero-rate exploration policy attached, which computes confidence but
  probes nothing, produces decisions bit-identical to a bare service
  over the same predictor: same spec, same config, same vector bytes.

Violations raise :class:`OracleMismatchError`, replayable via the
standard ``REPRO_FUZZ_SEED`` one-liner.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import NUM_FEATURES, NUM_TARGETS
from repro.core.online import ExplorationConfig, ExplorationPolicy
from repro.core.predictors import make_predictor
from repro.core.predictors.base import LearnedPredictor
from repro.errors import OracleMismatchError
from repro.machine.fleet import Fleet
from repro.machine.specs import DEFAULT_PAIR, get_accelerator
from repro.runtime.engine.decision import DecisionService

__all__ = [
    "CHEAP_FAMILIES",
    "check_confidence_report",
    "check_coverage_monotone",
    "check_tracking_differential",
    "run_calibration_case",
]

#: Families a fuzz case samples from — every confidence source is
#: represented (leaf-stats, residual-band, table-coverage, ensemble,
#: exact) without paying a deep-net fit per case beyond the smallest.
CHEAP_FAMILIES = (
    "decision_tree",
    "linear",
    "multi_regression",
    "adaptive_library",
    "cart",
    "deep16",
)


def _random_training(
    rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random (features, targets) on the unit cube."""
    features = rng.random((rows, NUM_FEATURES))
    targets = rng.random((rows, NUM_TARGETS))
    return features, targets


def _grid_features(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Random probe rows on the encoder's 0.1 discretization grid."""
    return np.round(rng.integers(0, 11, size=(rows, NUM_FEATURES)) / 10.0, 1)


def check_confidence_report(predictor, features: np.ndarray, family: str) -> None:
    """Validity, determinism, and purity of one family's confidence."""
    vectors = predictor.predict_batch(features)
    confidence = predictor.confidence_batch(features)
    rows = features.shape[0]
    if confidence.shape != (rows,) or confidence.dtype != np.float64:
        raise OracleMismatchError(
            f"{family}: confidence is a {confidence.dtype} array of shape "
            f"{confidence.shape}, not float64 of the batch length ({rows},)"
        )
    if rows and (confidence.min() < 0.0 or confidence.max() > 1.0):
        raise OracleMismatchError(
            f"{family}: confidence outside [0, 1] "
            f"(min {confidence.min()}, max {confidence.max()})"
        )
    if not np.array_equal(confidence, predictor.confidence_batch(features)):
        raise OracleMismatchError(f"{family}: confidence is not deterministic")
    if not np.array_equal(vectors, predictor.predict_batch(features)):
        raise OracleMismatchError(
            f"{family}: confidence_batch perturbed the predicted vectors"
        )


def check_coverage_monotone(
    rng: np.random.Generator, probes: np.ndarray
) -> None:
    """Adaptive confidence never drops when training data is added."""
    gpu, multicore = (get_accelerator(name) for name in DEFAULT_PAIR)
    base_rows = int(rng.integers(8, 24))
    extra_rows = int(rng.integers(1, 16))
    features, targets = _random_training(rng, base_rows + extra_rows)
    small = make_predictor("adaptive_library", gpu, multicore, seed=0)
    small.fit(features[:base_rows], targets[:base_rows])
    large = make_predictor("adaptive_library", gpu, multicore, seed=0)
    large.fit(features, targets)
    before = small.confidence_batch(probes)
    after = large.confidence_batch(probes)
    if np.any(after < before - 1e-12):
        worst = int(np.argmin(after - before))
        raise OracleMismatchError(
            "adaptive confidence dropped under added training data: "
            f"row {worst}: {before[worst]} -> {after[worst]}"
        )


def check_tracking_differential(
    predictor, features: np.ndarray, family: str
) -> None:
    """Confidence computed (a zero-rate exploration policy attached) is
    decision-bit-identical to a bare service."""
    fleet = Fleet.from_names(DEFAULT_PAIR)
    plain = DecisionService(predictor, fleet, predictor_name=family, metric="time")
    plain.overhead_ms = 0.0
    tracked = DecisionService(predictor, fleet, predictor_name=family, metric="time")
    tracked.overhead_ms = 0.0
    tracked.exploration = ExplorationPolicy(ExplorationConfig(rate=0.0))
    baseline = plain.choose_encoded(features)
    shadowed = tracked.choose_encoded(features)
    for row, (a, b) in enumerate(zip(baseline, shadowed)):
        if a.spec is not b.spec:
            raise OracleMismatchError(
                f"{family}: tracked row {row} spec {b.spec.name} != "
                f"{a.spec.name}"
            )
        if a.config != b.config:
            raise OracleMismatchError(
                f"{family}: tracked row {row} config diverged"
            )
        if not np.array_equal(a.vector, b.vector):
            raise OracleMismatchError(
                f"{family}: tracked row {row} vector bytes diverged"
            )
        if b.confidence is None:
            raise OracleMismatchError(
                f"{family}: tracked row {row} carries no confidence"
            )


def run_calibration_case(seed: int) -> str:
    """One fuzz case: a random family + random data through all checks."""
    rng = np.random.default_rng(seed)
    family = CHEAP_FAMILIES[int(rng.integers(0, len(CHEAP_FAMILIES)))]
    gpu, multicore = (get_accelerator(name) for name in DEFAULT_PAIR)
    predictor = make_predictor(family, gpu, multicore, seed=int(rng.integers(0, 2**31)))
    rows = int(rng.integers(8, 40))
    if isinstance(predictor, LearnedPredictor):
        predictor.fit(*_random_training(rng, rows))
    probes = _grid_features(rng, int(rng.integers(1, 12)))
    check_confidence_report(predictor, probes, family)
    check_tracking_differential(predictor, probes, family)
    check_coverage_monotone(rng, probes)
    return f"{family} rows={rows} probes={probes.shape[0]}"

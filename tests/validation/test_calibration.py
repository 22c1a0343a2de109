"""Tests for the calibration fuzz component (confidence invariants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import NUM_FEATURES, NUM_TARGETS
from repro.core.predictors import make_predictor
from repro.errors import OracleMismatchError
from repro.machine.specs import DEFAULT_PAIR, get_accelerator
from repro.validation.calibration import (
    CHEAP_FAMILIES,
    check_confidence_report,
    check_coverage_monotone,
    check_tracking_differential,
    run_calibration_case,
)


class TestRunCase:
    def test_seeds_replay_deterministically(self):
        assert run_calibration_case(11) == run_calibration_case(11)

    def test_smoke_over_seed_band(self):
        descriptions = {run_calibration_case(seed) for seed in range(6)}
        assert descriptions  # every case returned its one-liner
        for description in descriptions:
            family = description.split()[0]
            assert family in CHEAP_FAMILIES

    def test_every_confidence_source_is_sampled(self):
        families = {
            run_calibration_case(seed).split()[0] for seed in range(40)
        }
        assert families == set(CHEAP_FAMILIES)


class TestChecksCatchViolations:
    """The component's oracles actually reject broken confidence."""

    def _probes(self, rows: int = 4) -> np.ndarray:
        rng = np.random.default_rng(0)
        return np.round(
            rng.integers(0, 11, size=(rows, NUM_FEATURES)) / 10.0, 1
        )

    def test_report_check_rejects_wrong_length(self):
        gpu, multicore = (get_accelerator(name) for name in DEFAULT_PAIR)
        predictor = make_predictor("decision_tree", gpu, multicore)

        class Truncating:
            def confidence_batch(self, features):
                return predictor.confidence_batch(features[:-1])

            def predict_batch(self, features):
                return predictor.predict_batch(features)

        with pytest.raises(OracleMismatchError, match="length"):
            check_confidence_report(Truncating(), self._probes(), "broken")

    def test_report_check_rejects_perturbed_vectors(self):
        """A confidence pass that leaves state behind which moves the
        next prediction is caught."""
        gpu, multicore = (get_accelerator(name) for name in DEFAULT_PAIR)
        predictor = make_predictor("decision_tree", gpu, multicore)

        class Perturbing:
            calls = 0

            def confidence_batch(self, features):
                self.calls += 1
                return predictor.confidence_batch(features)

            def predict_batch(self, features):
                return predictor.predict_batch(features) + 1e-9 * self.calls

        with pytest.raises(OracleMismatchError, match="perturbed"):
            check_confidence_report(Perturbing(), self._probes(), "broken")

    def test_monotone_check_passes_on_real_adaptive(self):
        check_coverage_monotone(np.random.default_rng(5), self._probes())

    def test_differential_check_passes_on_real_family(self):
        gpu, multicore = (get_accelerator(name) for name in DEFAULT_PAIR)
        predictor = make_predictor("cart", gpu, multicore, seed=0)
        rng = np.random.default_rng(1)
        predictor.fit(
            rng.random((16, NUM_FEATURES)), rng.random((16, NUM_TARGETS))
        )
        check_tracking_differential(predictor, self._probes(), "cart")

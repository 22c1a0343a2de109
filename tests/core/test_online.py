"""Online adaptation: exploration policy, drift harness, adapter loop."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.heteromap import HeteroMap
from repro.core.online import (
    AdaptationConfig,
    DriftInjectedBackend,
    ExplorationConfig,
    ExplorationPolicy,
    OnlineAdapter,
    _BufferedOutcome,
    _ShadowTrial,
)
from repro.core.predictors import make_predictor
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime.deploy import prepare_workload


@pytest.fixture(scope="module")
def trained():
    hetero = HeteroMap.with_default_pair(predictor="cart", seed=7)
    hetero.train(num_samples=40, seed=7)
    return hetero


@pytest.fixture(scope="module")
def workload():
    return prepare_workload("pagerank", "facebook")


class TestExplorationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -0.1},
            {"rate": 1.5},
            {"confidence_threshold": -0.2},
            {"confidence_threshold": 2.0},
            {"budget": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ExplorationConfig(**kwargs)


class TestExplorationPolicy:
    def test_unknown_confidence_never_probed(self):
        policy = ExplorationPolicy(ExplorationConfig(rate=1.0))
        assert not policy.should_explore(None)
        assert policy.probes == 0

    def test_confident_rows_never_probed(self):
        policy = ExplorationPolicy(
            ExplorationConfig(rate=1.0, confidence_threshold=0.6)
        )
        assert not policy.should_explore(0.6)
        assert not policy.should_explore(0.99)
        assert policy.probes == 0

    def test_rate_one_probes_every_uncertain_row(self):
        policy = ExplorationPolicy(ExplorationConfig(rate=1.0))
        assert all(policy.should_explore(0.1) for _ in range(5))
        assert policy.probes == 5

    def test_rate_zero_never_probes(self):
        policy = ExplorationPolicy(ExplorationConfig(rate=0.0))
        assert not any(policy.should_explore(0.1) for _ in range(5))

    def test_budget_caps_lifetime_probes(self):
        policy = ExplorationPolicy(ExplorationConfig(rate=1.0, budget=2))
        grants = [policy.should_explore(0.1) for _ in range(5)]
        assert grants == [True, True, False, False, False]
        assert policy.probes == 2

    def test_seeded_draws_replay(self):
        config = ExplorationConfig(rate=0.5)
        a = ExplorationPolicy(config, seed=42)
        b = ExplorationPolicy(config, seed=42)
        draws_a = [a.should_explore(0.1) for _ in range(40)]
        draws_b = [b.should_explore(0.1) for _ in range(40)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)


class TestAdaptationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_capacity": 0},
            {"shadow_window": 0},
            {"promote_margin": 0.0},
            {"promote_margin": 1.2},
            {"replicate": 0},
            {"ratio_alpha": 0.0},
            {"ratio_alpha": 1.5},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AdaptationConfig(**kwargs)


class TestDriftInjectedBackend:
    def test_validates_factor_and_kind(self, trained):
        with pytest.raises(ValueError):
            DriftInjectedBackend(trained.engine.backend, factor=0.0)
        with pytest.raises(ValueError):
            DriftInjectedBackend(trained.engine.backend, kind="fpga")

    def test_inert_before_trigger(self, trained, workload):
        inner = trained.engine.backend
        backend = DriftInjectedBackend(inner, factor=4.0, start_after=100)
        decision = trained.decisions.decide(workload)
        wrapped = backend.execute(workload, decision.spec, decision.config)
        direct = inner.execute(workload, decision.spec, decision.config)
        assert wrapped == direct
        assert not backend.drifting

    def test_scales_affected_kind_only(self, trained, workload):
        decision = trained.decisions.decide(workload)
        for kind in ("gpu", "multicore"):
            backend = DriftInjectedBackend(
                trained.engine.backend, factor=4.0, start_after=0, kind=kind
            )
            for estimate in decision.estimates:
                baseline = trained.engine.backend.execute(
                    workload, estimate.spec, estimate.config
                )
                drifted = backend.execute(
                    workload, estimate.spec, estimate.config
                )
                affected = (
                    estimate.spec.is_gpu
                    if kind == "gpu"
                    else not estimate.spec.is_gpu
                )
                expected = 4.0 if affected else 1.0
                assert drifted.time_ms == pytest.approx(
                    baseline.time_ms * expected
                )
                assert drifted.energy_j == pytest.approx(
                    baseline.energy_j * expected
                )

    def test_scaling_preserves_utilization(self, trained, workload):
        decision = trained.decisions.decide(workload)
        estimate = decision.chosen
        backend = DriftInjectedBackend(
            trained.engine.backend,
            factor=3.0,
            start_after=0,
            kind="gpu" if estimate.spec.is_gpu else "multicore",
        )
        baseline = trained.engine.backend.execute(
            workload, estimate.spec, estimate.config
        )
        drifted = backend.execute(workload, estimate.spec, estimate.config)
        assert drifted.cost.utilization == pytest.approx(
            baseline.cost.utilization
        )

    def test_name_and_counter(self, trained, workload):
        backend = DriftInjectedBackend(
            trained.engine.backend, factor=2.0, start_after=0
        )
        assert backend.name.startswith("drift(")
        decision = trained.decisions.decide(workload)
        backend.execute(workload, decision.spec, decision.config)
        assert backend.executions == 1
        assert backend.drifting


class TestShadowVerdict:
    def _trial(self, incumbent: float, candidate: float) -> _ShadowTrial:
        trial = _ShadowTrial(candidate=None, window=1)
        trial.incumbent_regret = incumbent
        trial.candidate_regret = candidate
        return trial

    def test_regret_free_incumbent_never_replaced(self):
        assert not self._trial(0.0, 0.0).verdict(0.95)

    def test_candidate_must_beat_margin(self):
        assert self._trial(100.0, 94.0).verdict(0.95)
        assert not self._trial(100.0, 96.0).verdict(0.95)

    def test_worse_candidate_discarded(self):
        assert not self._trial(10.0, 50.0).verdict(0.95)


class TestCorrectedTargets:
    """Buffered rows keep raw costs; targets recompute at retrain time."""

    def _adapter(self, trained) -> OnlineAdapter:
        return OnlineAdapter(
            trained.decisions,
            make_candidate=lambda: make_predictor(
                "cart", trained.gpu, trained.multicore, seed=0
            ),
            base_matrices=None,
        )

    def _row(self) -> _BufferedOutcome:
        # GPU wins on raw costs: 1 ms vs 3 ms.
        return _BufferedOutcome(
            features=tuple(np.zeros(17)),
            vector=np.full(11, 0.5),
            costs_ms=(1.0, 3.0),
            devices=("gtx750ti", "xeonphi7120p"),
            is_gpu=(True, False),
        )

    def test_target_follows_raw_argmin_without_ratios(self, trained):
        target = self._adapter(trained)._corrected_target(self._row())
        assert target[0] == 0.0  # GPU kind
        assert np.all(target[1:] == 0.5)  # knob targets untouched

    def test_current_ratios_flip_the_bit(self, trained):
        adapter = self._adapter(trained)
        adapter._ratios["gtx750ti"] = 4.0  # GPU now 4 ms > 3 ms
        target = adapter._corrected_target(self._row())
        assert target[0] == 1.0  # multicore kind

    def test_buffer_rows_are_not_frozen(self, trained):
        """The same buffered row re-targets as the ratio EWMAs move."""
        adapter = self._adapter(trained)
        row = self._row()
        before = adapter._corrected_target(row)[0]
        adapter._ratios["gtx750ti"] = 10.0
        after = adapter._corrected_target(row)[0]
        assert (before, after) == (0.0, 1.0)

    def test_analytical_candidate_skips_retrain(self, trained):
        adapter = OnlineAdapter(
            trained.decisions,
            make_candidate=lambda: make_predictor(
                "decision_tree", trained.gpu, trained.multicore
            ),
            base_matrices=None,
            config=AdaptationConfig(min_buffer=1, cooldown=0),
        )
        adapter._buffer.append(self._row())
        adapter._maybe_retrain()
        assert adapter.retrains == 0
        assert not adapter.shadow_active


class TestAdapterLoop:
    """End-to-end: drift alarm -> shadow retrain -> promote -> new gen."""

    # Mixed kinds under seed-0 CART: the twitter rows place on the GPU
    # (so a GPU-kind perturbation is actually observed), the rest on the
    # multicore.
    STREAM = [
        ("pagerank", "twitter"),
        ("bfs", "cage14"),
        ("sssp_bf", "twitter"),
        ("triangle_counting", "livejournal"),
    ]

    def _serve(self, *, drift_factor: float | None, requests: int = 160):
        hetero = HeteroMap.with_default_pair(predictor="cart", seed=0)
        hetero.train(num_samples=80, seed=0)
        backend = hetero.engine.backend
        if drift_factor is not None:
            backend = DriftInjectedBackend(
                backend,
                factor=drift_factor,
                start_after=requests // 3,
                kind="gpu",
            )
            hetero.engine.backend = backend
        adapter = hetero.enable_adaptation(
            AdaptationConfig(
                cooldown=32, shadow_window=24, min_buffer=8, drift_min_samples=8
            )
        )
        workloads = [prepare_workload(*item) for item in self.STREAM]
        for index in range(requests):
            workload = workloads[index % len(workloads)]
            decision = hetero.decisions.decide(workload)
            result = backend.execute(workload, decision.spec, decision.config)
            hetero.decisions.audit(
                decision, decision.spec, decision.config, result
            )
        return hetero, adapter

    def test_stable_stream_never_alarms(self):
        hetero, adapter = self._serve(drift_factor=None, requests=60)
        assert adapter.observations == 60
        assert adapter.drift_alarms == 0
        assert adapter.retrains == 0
        assert hetero.decisions.generation == 0

    def test_drift_promotes_a_retrained_candidate(self):
        # Factor 8 clears the twitter rows' GPU-vs-multicore margins, so
        # the corrected argmin genuinely flips (a 4x perturbation would
        # leave the incumbent optimal and a discard would be correct).
        hetero, adapter = self._serve(drift_factor=8.0)
        assert adapter.drift_alarms >= 1
        assert adapter.retrains >= 1
        assert adapter.shadow_evaluations >= 1
        assert adapter.promotions >= 1
        assert hetero.decisions.generation >= 1
        assert adapter.ratios()["gtx750ti"] == pytest.approx(8.0, rel=0.1)

    def test_summary_is_json_shaped(self):
        _, adapter = self._serve(drift_factor=None, requests=20)
        summary = adapter.summary()
        assert summary["observations"] == 20
        for key in (
            "drift_alarms",
            "retrains",
            "shadow_evaluations",
            "shadow_active",
            "promotions",
            "discards",
            "generation",
            "buffer_rows",
            "ratios",
        ):
            assert key in summary


class TestAdaptationLoop:
    """Frozen vs adapting CART on one seeded drift-injected stream.

    The GPU kind runs ``DRIFT_FACTOR`` times slower after the first third
    of the stream.  Regret is scored against known truth: the decision's
    per-device estimates, scaled by the factor on GPU rows once the drift
    is active.  Over the last third, the adapting map must have promoted
    a retrained candidate and cut the frozen map's tail regret by at
    least ``REGRET_FLOOR``.
    """

    BENCHMARKS = ("bfs", "pagerank", "sssp_bf", "triangle_counting")
    DATASETS = ("usa-cal", "livejournal", "twitter", "facebook", "cage14")
    TRAIN_SAMPLES = 120
    REQUESTS = 240
    DRIFT_FACTOR = 4.0
    REGRET_FLOOR = 1.5

    def _tail_regret(self, stream, workloads, *, seed: int, adapt: bool):
        hetero = HeteroMap(DEFAULT_PAIR, predictor="cart", seed=seed)
        hetero.train(num_samples=self.TRAIN_SAMPLES, seed=seed)
        start_after = self.REQUESTS // 3
        backend = DriftInjectedBackend(
            hetero.engine.backend,
            factor=self.DRIFT_FACTOR,
            start_after=start_after,
            kind="gpu",
        )
        hetero.engine.backend = backend
        adapter = None
        if adapt:
            adapter = hetero.enable_adaptation(
                AdaptationConfig(
                    cooldown=32, shadow_window=24, min_buffer=8, drift_min_samples=8
                )
            )
        tail_start = self.REQUESTS - self.REQUESTS // 3
        tail = 0.0
        for index, item in enumerate(stream):
            workload = workloads[item]
            decision = hetero.decisions.decide(workload)
            result = backend.execute(workload, decision.spec, decision.config)
            hetero.decisions.audit(
                decision, decision.spec, decision.config, result
            )
            drifting = backend.executions > start_after
            truth = [
                estimate.time_ms
                * (self.DRIFT_FACTOR if drifting and estimate.spec.is_gpu else 1.0)
                for estimate in decision.estimates
            ]
            if index >= tail_start:
                tail += result.time_ms - min(truth)
        return tail, adapter

    @pytest.mark.parametrize("seed", [0, 1])
    def test_adapting_map_beats_the_frozen_tail(self, seed):
        rng = random.Random(seed)
        stream = [
            (rng.choice(self.BENCHMARKS), rng.choice(self.DATASETS))
            for _ in range(self.REQUESTS)
        ]
        workloads = {item: prepare_workload(*item) for item in set(stream)}
        frozen, _ = self._tail_regret(stream, workloads, seed=seed, adapt=False)
        adaptive, adapter = self._tail_regret(
            stream, workloads, seed=seed, adapt=True
        )
        assert adapter.promotions >= 1, adapter.summary()
        assert adaptive < frozen
        assert adaptive * self.REGRET_FLOOR <= frozen, (adaptive, frozen)

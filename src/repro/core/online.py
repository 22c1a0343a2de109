"""Online adaptation: exploration, drift-triggered retrain, shadow promote.

This module closes the predict → decide → observe loop the quality
observatory (PR 8) opened.  Three cooperating pieces:

* :class:`ExplorationPolicy` — decides which low-confidence plan-tier
  rows earn an exploration probe (a simulate-only costing of the row on
  every fleet device, recorded in the audit stream).  Seeded epsilon
  draws plus a lifetime budget; with the policy detached the serving
  path is bit-identical to today's decisions.
* :class:`OnlineAdapter` — folds every observed
  :class:`~repro.runtime.engine.contracts.Decision` outcome into
  per-device observed/estimated ratio EWMAs and a bounded retraining
  buffer of *corrected* target rows (the predicted vector with its M1
  bit flipped to the corrected-cost argmin kind).  Its own two-sided
  Page–Hinkley :class:`~repro.obs.quality.DriftDetector` watches the
  relative estimate error — independent of ``REPRO_OBS``, so adaptation
  works with observability off.  A drift alarm (after cooldown) fits a
  **candidate** predictor on the base training database plus the
  replicated buffer and shadow-deploys it: both models decide every
  subsequent observed row, only the incumbent executes, and regret is
  scored against the ratio-corrected cost vector (the audit stream's
  counterfactual, replayed with what execution has taught us about each
  device).  The candidate is promoted only when its windowed regret
  beats the incumbent's by :attr:`AdaptationConfig.promote_margin`;
  promotion swaps the predictor atomically through
  :meth:`~repro.runtime.engine.decision.DecisionService.swap_predictor`,
  whose generation bump invalidates every stale cache key — in the
  single-process server and in forked shard workers alike.
* :class:`DriftInjectedBackend` — a test/bench harness that wraps any
  :class:`~repro.runtime.engine.execution.ExecutionBackend` and scales
  one accelerator kind's executed times by a factor after a trigger
  point, simulating a mid-stream device perturbation (thermal throttle,
  contention, driver regression) so the whole loop can be exercised
  deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro import obs
from repro.accel.simulator import SimulationResult
from repro.core.predictors.base import LearnedPredictor, Predictor
from repro.machine.specs import AcceleratorSpec
from repro.obs.quality import DriftDetector
from repro.runtime.deploy import Workload
from repro.runtime.engine.contracts import Decision
from repro.runtime.engine.decision import DecisionService, select_chosen
from repro.runtime.engine.execution import ExecutionBackend
from repro.machine.mvars import MachineConfig

__all__ = [
    "AdaptationConfig",
    "DriftInjectedBackend",
    "ExplorationConfig",
    "ExplorationPolicy",
    "OnlineAdapter",
]


# -- exploration -----------------------------------------------------------


@dataclass(frozen=True)
class ExplorationConfig:
    """Knobs of the low-confidence exploration path."""

    #: Epsilon: fraction of below-threshold rows that get probed.
    rate: float = 0.05
    #: Rows at or above this confidence are never probed.
    confidence_threshold: float = 0.6
    #: Lifetime probe cap (``None`` = unlimited).  Probes cost one
    #: simulate() per fleet device, so serving tiers bound the spend.
    budget: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(
                "confidence_threshold must be in [0, 1], got "
                f"{self.confidence_threshold}"
            )
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")


class ExplorationPolicy:
    """Seeded epsilon selection of low-confidence rows to probe.

    Deterministic for a given seed and call sequence, so serve traces
    replay exactly.  A row with unknown confidence (``None`` — a cache
    entry computed before a policy or adapter was attached) is never
    probed.
    """

    def __init__(
        self, config: ExplorationConfig | None = None, *, seed: int = 0
    ) -> None:
        self.config = config or ExplorationConfig()
        self._rng = np.random.default_rng(seed)
        #: Lifetime probes granted (monotone).
        self.probes = 0

    def should_explore(self, confidence: float | None) -> bool:
        """Whether one plan-tier row earns a probe (consumes budget)."""
        if confidence is None or confidence >= self.config.confidence_threshold:
            return False
        budget = self.config.budget
        if budget is not None and self.probes >= budget:
            return False
        if self.config.rate <= 0.0:
            return False
        if self.config.rate < 1.0 and self._rng.random() >= self.config.rate:
            return False
        self.probes += 1
        return True


# -- the adaptation loop ---------------------------------------------------


@dataclass(frozen=True)
class AdaptationConfig:
    """Knobs of the drift → retrain → shadow → promote loop."""

    #: Retraining buffer capacity (corrected rows retained, FIFO).
    buffer_capacity: int = 512
    #: Page–Hinkley tolerance over the relative estimate error.
    drift_delta: float = 0.005
    #: Page–Hinkley alarm threshold.
    drift_threshold: float = 0.25
    #: Observations before the detector may alarm.
    drift_min_samples: int = 16
    #: Minimum buffered rows before a retrain is worth attempting.
    min_buffer: int = 8
    #: Observations between retrain attempts (alarm backoff).
    cooldown: int = 64
    #: Shadow-evaluation window: observed rows both models decide before
    #: the promote/discard verdict.
    shadow_window: int = 48
    #: Promote only when candidate regret <= incumbent regret * margin.
    promote_margin: float = 0.95
    #: Replication weight of buffer rows vs the base database at refit.
    replicate: int = 4
    #: EWMA step for the per-device observed/estimated ratio.
    ratio_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.shadow_window < 1:
            raise ValueError("shadow_window must be >= 1")
        if not 0.0 < self.promote_margin <= 1.0:
            raise ValueError(
                f"promote_margin must be in (0, 1], got {self.promote_margin}"
            )
        if self.replicate < 1:
            raise ValueError("replicate must be >= 1")
        if not 0.0 < self.ratio_alpha <= 1.0:
            raise ValueError("ratio_alpha must be in (0, 1]")


@dataclass(frozen=True)
class _BufferedOutcome:
    """One executed placement, kept raw so retrains stay current.

    The corrected M1 target is *not* frozen at observation time — the
    ratio EWMAs keep moving as drift unfolds, and a target computed
    mid-transition would teach the candidate yesterday's reality.
    Retrains recompute every buffered row's target from the raw
    per-device estimates and the ratios as they stand *now*.
    """

    features: tuple[float, ...]
    vector: np.ndarray
    costs_ms: tuple[float, ...]
    devices: tuple[str, ...]
    is_gpu: tuple[bool, ...]


class _ShadowTrial:
    """One candidate model riding behind the incumbent.

    Both models decide every observed row; only the incumbent's decision
    was executed.  Regret is accumulated against the ratio-corrected
    per-device cost vector — the audit counterfactual adjusted by what
    execution has taught the adapter about each device.
    """

    def __init__(self, candidate: Predictor, window: int) -> None:
        self.candidate = candidate
        self.window = window
        self.samples = 0
        self.incumbent_regret = 0.0
        self.candidate_regret = 0.0

    @property
    def done(self) -> bool:
        return self.samples >= self.window

    def verdict(self, margin: float) -> bool:
        """True = promote: candidate regret beats incumbent by margin."""
        if self.incumbent_regret <= 0.0:
            # The incumbent is already regret-free over the window;
            # swapping buys nothing and costs cache warmth.
            return False
        return self.candidate_regret <= self.incumbent_regret * margin


class OnlineAdapter:
    """Folds observed outcomes into drift-aware shadow retraining.

    Attach to a :class:`DecisionService` by assignment
    (``service.adapter = adapter``) or via
    :meth:`repro.core.heteromap.HeteroMap.enable_adaptation`; the
    service's :meth:`~repro.runtime.engine.decision.DecisionService.audit`
    feeds :meth:`observe` unconditionally (with or without ``REPRO_OBS``).
    """

    def __init__(
        self,
        service: DecisionService,
        *,
        make_candidate: Callable[[], Predictor],
        base_matrices: tuple[np.ndarray, np.ndarray] | None,
        config: AdaptationConfig | None = None,
    ) -> None:
        self.service = service
        self.make_candidate = make_candidate
        self.base_matrices = base_matrices
        self.config = config or AdaptationConfig()
        self.detector = DriftDetector(
            delta=self.config.drift_delta,
            threshold=self.config.drift_threshold,
            min_samples=self.config.drift_min_samples,
        )
        self._buffer: deque[_BufferedOutcome] = deque(
            maxlen=self.config.buffer_capacity
        )
        self._ratios: dict[str, float] = {}
        self._shadow: _ShadowTrial | None = None
        self._last_retrain = -self.config.cooldown  # first alarm may fire
        # Monotone loop counters (the serve artifact's adaptation line).
        self.observations = 0
        self.drift_alarms = 0
        self.retrains = 0
        self.shadow_evaluations = 0
        self.promotions = 0
        self.discards = 0

    # -- the observation fold ---------------------------------------------

    def observe(
        self,
        decision: Decision,
        spec: AcceleratorSpec,
        result: SimulationResult,
    ) -> None:
        """Fold one executed placement into the adaptation state."""
        estimated = decision.estimate_for(spec.name).time_ms
        observed = result.time_ms
        if estimated <= 0.0:
            return
        self.observations += 1
        ratio = observed / estimated
        alpha = self.config.ratio_alpha
        previous = self._ratios.get(spec.name)
        self._ratios[spec.name] = (
            ratio if previous is None else (1.0 - alpha) * previous + alpha * ratio
        )
        corrected = self._corrected_costs(decision)
        self._buffer.append(
            _BufferedOutcome(
                features=decision.features,
                vector=np.array(decision.vector, dtype=np.float64, copy=True),
                costs_ms=tuple(e.time_ms for e in decision.estimates),
                devices=tuple(e.spec.name for e in decision.estimates),
                is_gpu=tuple(e.spec.is_gpu for e in decision.estimates),
            )
        )
        if self._shadow is not None:
            self._score_shadow(decision, corrected)
            if self._shadow is not None and self._shadow.done:
                self._conclude_shadow()
        error_frac = ratio - 1.0
        if self.detector.update(error_frac):
            self.drift_alarms += 1
            if obs.enabled():
                obs.counter("quality.adapter_drift_alarm")
            self._maybe_retrain()

    def _corrected_costs(self, decision: Decision) -> list[float]:
        """Per-device estimates scaled by each device's observed ratio."""
        return [
            estimate.time_ms * self._ratios.get(estimate.spec.name, 1.0)
            for estimate in decision.estimates
        ]

    def _corrected_target(self, row: _BufferedOutcome) -> np.ndarray:
        """The row's vector with M1 flipped to the *current* corrected kind.

        Computed at retrain time from the raw per-device estimates and
        the ratios as they stand now, so every buffered row — including
        ones executed before the drift — teaches the candidate the
        present shape of the fleet.
        """
        corrected = [
            cost * self._ratios.get(name, 1.0)
            for cost, name in zip(row.costs_ms, row.devices)
        ]
        best = min(
            range(len(corrected)),
            key=lambda i: (corrected[i], row.devices[i]),
        )
        target = row.vector.copy()
        target[0] = 0.0 if row.is_gpu[best] else 1.0
        return target

    # -- retrain + shadow --------------------------------------------------

    def _maybe_retrain(self) -> None:
        if self._shadow is not None:
            return  # a trial is already riding; let it conclude
        if len(self._buffer) < self.config.min_buffer:
            return
        if self.observations - self._last_retrain < self.config.cooldown:
            return
        candidate = self.make_candidate()
        if not isinstance(candidate, LearnedPredictor):
            return  # the analytical model has nothing to refit
        self._last_retrain = self.observations
        features, targets = self._training_matrices()
        candidate.fit(features, targets)
        self.retrains += 1
        self._shadow = _ShadowTrial(candidate, self.config.shadow_window)
        if obs.enabled():
            obs.counter("quality.retrains")

    def _training_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Base database plus the replicated correction buffer."""
        buffer_features = np.asarray(
            [row.features for row in self._buffer], dtype=np.float64
        )
        buffer_targets = np.vstack(
            [self._corrected_target(row) for row in self._buffer]
        )
        replicate = self.config.replicate
        blocks_x = [buffer_features] * replicate
        blocks_y = [buffer_targets] * replicate
        if self.base_matrices is not None:
            blocks_x.insert(0, self.base_matrices[0])
            blocks_y.insert(0, self.base_matrices[1])
        return np.vstack(blocks_x), np.vstack(blocks_y)

    def _score_shadow(self, decision: Decision, corrected: list[float]) -> None:
        """Both models decide this observed row; score corrected regret."""
        trial = self._shadow
        assert trial is not None
        oracle = min(
            range(len(corrected)),
            key=lambda i: (corrected[i], decision.estimates[i].spec.name),
        )
        incumbent_cost = corrected[decision.chosen_index]
        vector = trial.candidate.predict_vector(
            np.asarray(decision.features, dtype=np.float64)
        )
        candidate_index = select_chosen(
            [e.spec for e in decision.estimates],
            corrected,
            prefer_multicore=float(vector[0]) >= 0.5,
        )
        candidate_cost = corrected[candidate_index]
        trial.incumbent_regret += incumbent_cost - corrected[oracle]
        trial.candidate_regret += candidate_cost - corrected[oracle]
        trial.samples += 1
        self.shadow_evaluations += 1
        if obs.enabled():
            obs.counter("quality.shadow_evaluations")

    def _conclude_shadow(self) -> None:
        trial = self._shadow
        assert trial is not None
        self._shadow = None
        if trial.verdict(self.config.promote_margin):
            generation = self.service.swap_predictor(trial.candidate)
            self.promotions += 1
            obs.record_promotion(
                {
                    "predictor": self.service.predictor_name,
                    "generation": generation,
                    "shadow_samples": trial.samples,
                    "incumbent_regret_ms": trial.incumbent_regret,
                    "candidate_regret_ms": trial.candidate_regret,
                    "buffer_rows": len(self._buffer),
                    "observations": self.observations,
                }
            )
        else:
            self.discards += 1
            if obs.enabled():
                obs.counter("quality.shadow_discards")

    # -- introspection -----------------------------------------------------

    @property
    def shadow_active(self) -> bool:
        """Whether a candidate is currently riding behind the incumbent."""
        return self._shadow is not None

    def ratios(self) -> dict[str, float]:
        """Per-device observed/estimated EWMAs (1.0 = model on target)."""
        return dict(sorted(self._ratios.items()))

    def summary(self) -> dict:
        """JSON-able snapshot for serve artifacts and bench payloads."""
        return {
            "observations": self.observations,
            "drift_alarms": self.drift_alarms,
            "retrains": self.retrains,
            "shadow_evaluations": self.shadow_evaluations,
            "shadow_active": self.shadow_active,
            "promotions": self.promotions,
            "discards": self.discards,
            "generation": self.service.generation,
            "buffer_rows": len(self._buffer),
            "ratios": self.ratios(),
        }


# -- drift injection (test/bench harness) ----------------------------------


class DriftInjectedBackend:
    """Wrap a backend and perturb one accelerator kind mid-stream.

    After ``start_after`` executions, every result on the affected kind
    has its modelled cost (time, busy/stall split, streaming share) and
    energy scaled by ``factor`` — the executed reality drifts away from
    the decision layer's estimates, which keep using the unperturbed
    model.  Deterministic: the trigger is a simple execution count.
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        *,
        factor: float = 4.0,
        start_after: int = 0,
        kind: str = "gpu",
    ) -> None:
        if factor <= 0.0:
            raise ValueError(f"factor must be > 0, got {factor}")
        if kind not in ("gpu", "multicore"):
            raise ValueError(f"kind must be 'gpu' or 'multicore', got {kind!r}")
        self.inner = inner
        self.factor = float(factor)
        self.start_after = int(start_after)
        self.kind = kind
        self.executions = 0

    @property
    def name(self) -> str:
        return f"drift({self.inner.name})"

    @property
    def drifting(self) -> bool:
        """Whether the perturbation is currently active."""
        return self.executions > self.start_after

    def execute(
        self,
        workload: Workload,
        spec: AcceleratorSpec,
        config: MachineConfig,
        *,
        estimate: SimulationResult | None = None,
    ) -> SimulationResult:
        result = self.inner.execute(workload, spec, config, estimate=estimate)
        self.executions += 1
        if self.executions <= self.start_after or self.factor == 1.0:
            return result
        affected = spec.is_gpu if self.kind == "gpu" else not spec.is_gpu
        if not affected:
            return result
        factor = self.factor
        # time_ms/energy_j are derived properties, so the scaling goes
        # through the underlying cost/energy payloads; scaling busy and
        # stall together keeps the utilization fraction unchanged.
        cost = replace(
            result.cost,
            time_s=result.cost.time_s * factor,
            busy_s=result.cost.busy_s * factor,
            stall_s=result.cost.stall_s * factor,
            streaming_s=result.cost.streaming_s * factor,
        )
        energy = replace(result.energy, energy_j=result.energy.energy_j * factor)
        return replace(result, cost=cost, energy=energy)

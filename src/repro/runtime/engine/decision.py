"""Decision layer: workloads in, fleet-costed decisions out.

:class:`DecisionService` owns everything the predictor needs at serving
time — the learner itself, the device :class:`~repro.machine.fleet.Fleet`,
and the exact LRU :class:`~repro.runtime.serving.DecisionCache` — and
exposes two tiers:

* :meth:`plan_batch` — the throughput path: encode all features in one
  pass, dedupe through the cache and an in-batch memo, run **one**
  batched forward for the misses, fan back out in input order;
* :meth:`decide_batch` — the engine path: everything above, plus a
  cost-model estimate of the predicted knob vector decoded onto
  **every** device in the fleet, packaged as
  :class:`~repro.runtime.engine.contracts.Decision` objects the
  placement layer can schedule against.

The decision rule is *kind-restricted argmin*: the predictor's M1 bit
picks the accelerator **kind** (GPU vs multicore, the paper's binary
call) and the concrete device within that kind is the argmin of the
per-device cost estimates (ties break by device name, so decisions are
invariant under permutation of the fleet's device list).  On a
two-device fleet the kind has exactly one member, which makes the fleet
path bit-identical to the historical pair path — decoding the predicted
vector onto the opposite device with its own parameters is exactly what
the old "flip the M1 bit and re-decode" produced.  The per-device
estimates use the scalar :func:`~repro.accel.simulator.simulate`
reference model (not the vectorized batch path, which is only
1e-9-equivalent) so estimates stay bit-exact against direct simulation.

Cache entries hold only the feature-keyed (spec, config, vector) triple;
estimates depend on the workload *profile* (two datasets can share a
discretized feature row yet scale differently), so they are computed per
workload and never cached.  Cache keys are namespaced by the fleet
fingerprint so one cache can never serve placements across fleets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.accel.simulator import SimulationResult, simulate
from repro.core.encoding import (
    decode_config_batch,
    decode_config_for,
    encode_features_batch,
)
from repro.core.predictors.base import Predictor
from repro.errors import NotTrainedError
from repro.machine.fleet import Fleet
from repro.machine.mvars import MachineConfig
from repro.machine.specs import AcceleratorSpec
from repro.runtime.deploy import Workload
from repro.runtime.engine.contracts import Decision, DeviceEstimate
from repro.runtime.serving import (
    CachedDecision,
    DecisionCache,
    feature_keys_batch,
)

__all__ = ["DecisionService", "select_chosen", "select_runner_up"]

#: Decimal places shape-dependent predictions are rounded to before
#: decoding.  Targets are clipped to [0, 1], so their ULP is ≤ 2e-16;
#: a 1e-9 grid sits ~1e6 ULPs above the BLAS batch-shape noise while
#: staying far below any knob's meaningful resolution.
_CANONICAL_DECIMALS = 9


def select_chosen(
    estimates: Sequence[DeviceEstimate],
    *,
    prefer_multicore: bool,
    metric: str,
) -> int:
    """Kind-restricted argmin: the index the decision layer deploys.

    Candidates are the devices of the M1 kind the predictor called;
    among them the lowest objective wins, ties broken by device name so
    the pick never depends on fleet-list order.

    Raises:
        ValueError: when the fleet has no device of the called kind.
    """
    candidates = [
        index
        for index, estimate in enumerate(estimates)
        if estimate.spec.is_gpu != prefer_multicore
    ]
    if not candidates:
        kind = "multicore" if prefer_multicore else "GPU"
        raise ValueError(f"no {kind} device among the estimates")
    return min(
        candidates,
        key=lambda i: (estimates[i].result.objective(metric), estimates[i].spec.name),
    )


def select_runner_up(
    estimates: Sequence[DeviceEstimate],
    chosen_index: int,
    metric: str,
) -> int:
    """Second-best index: the best estimate excluding the chosen device.

    Ties break by device name, like :func:`select_chosen`.

    Raises:
        ValueError: for a single-estimate list (no alternative exists).
    """
    candidates = [i for i in range(len(estimates)) if i != chosen_index]
    if not candidates:
        raise ValueError("a runner-up needs at least two estimates")
    return min(
        candidates,
        key=lambda i: (estimates[i].result.objective(metric), estimates[i].spec.name),
    )


class DecisionService:
    """The engine's decision layer around one predictor + device fleet."""

    def __init__(
        self,
        predictor: Predictor,
        fleet: Fleet,
        *,
        predictor_name: str,
        metric: str,
        cache: DecisionCache | None = None,
    ) -> None:
        self.predictor = predictor
        self.fleet = fleet
        self.predictor_name = predictor_name
        self.metric = metric
        self.cache = cache
        #: Measured predictor inference latency; ``None`` until trained.
        self.overhead_ms: float | None = None
        #: Predictor generation, bumped by :meth:`swap_predictor` when an
        #: online-adaptation promotion installs a retrained model.  Part
        #: of every cache key (via :attr:`predictor_tag`), so a promotion
        #: atomically invalidates stale entries — including in shard
        #: workers, whose caches key through the same path.
        self.generation = 0
        #: Whether :meth:`choose_encoded` also computes per-row
        #: confidence (a pure side computation — predicted vectors and
        #: decoded configs are untouched).  Off by default, so the plain
        #: serving path pays nothing and stays bit-identical.
        self.track_confidence = False
        #: Exploration policy (:class:`repro.core.online.ExplorationPolicy`)
        #: or ``None``.  When set, low-confidence plan-tier rows are
        #: probe-costed on every fleet device and audited as exploration
        #: records; the returned plans never change.
        self.exploration = None
        #: Online adapter (:class:`repro.core.online.OnlineAdapter`) or
        #: ``None``.  :meth:`audit` feeds it every observed outcome,
        #: independent of whether observability is enabled.
        self.adapter = None

    @property
    def predictor_tag(self) -> str:
        """Cache-key identity of the serving model: name + generation."""
        return f"{self.predictor_name}#g{self.generation}"

    def swap_predictor(self, predictor: Predictor) -> int:
        """Install a promoted predictor atomically and return the new gen.

        Bumps :attr:`generation` (so every key the old model computed is
        unreachable) and clears the local cache for hygiene — correctness
        rests on the key change alone, which is what keeps forked shard
        workers safe without any cross-process signal.
        """
        self.predictor = predictor
        self.generation += 1
        self.clear_cache()
        if obs.enabled():
            obs.gauge("quality.generation", float(self.generation))
        return self.generation

    # -- gates -------------------------------------------------------------

    @property
    def trained(self) -> bool:
        return self.overhead_ms is not None

    def require_trained(self) -> float:
        """The measured overhead, or a :class:`NotTrainedError`."""
        if self.overhead_ms is None:
            raise NotTrainedError("call train() before serving predictions")
        return self.overhead_ms

    def clear_cache(self) -> None:
        """Drop memoized decisions (a refit changes the mapping)."""
        if self.cache is not None:
            self.cache.clear()

    # -- planning (spec + config only) -------------------------------------

    @property
    def cache_active(self) -> bool:
        """Whether batches actually consult the LRU decision cache.

        False either because caching is disabled outright or because the
        predictor's batched forward is cheaper than a cache hit
        (``prefer_decision_cache = False``, e.g. CART) — bypassing is
        decision-neutral since the cache is exact.
        """
        return self.cache is not None and self.predictor.prefer_decision_cache

    def plan_batch(
        self, workloads: Sequence[Workload]
    ) -> list[tuple[AcceleratorSpec, MachineConfig]]:
        """Predict deployments for a batch in one cached forward pass.

        When an exploration policy is attached, low-confidence rows are
        additionally probe-costed on every fleet device (simulate-only)
        and recorded in the audit stream; the returned plans themselves
        are untouched, so exploration never changes what is served.
        """
        entries, features = self._choose_batch(workloads)
        if self.exploration is not None:
            self._explore_low_confidence(workloads, entries, features)
        return [(entry.spec, entry.config) for entry in entries]

    def _explore_low_confidence(
        self,
        workloads: Sequence[Workload],
        entries: Sequence[CachedDecision],
        features: np.ndarray,
    ) -> None:
        """Spend exploration budget costing uncertain plan-tier rows.

        Each selected row gets the full decide-tier treatment — the
        predicted vector decoded and model-costed on **every** fleet
        device — and an ``explored=True`` audit record carrying the
        counterfactual cost vector.  The quality observatory keeps these
        out of the placement regret fold; they exist to measure how wrong
        the low-confidence calls would have been.
        """
        policy = self.exploration
        probe_rows = [
            index
            for index, entry in enumerate(entries)
            if policy.should_explore(entry.confidence)
        ]
        if not probe_rows:
            return
        probe_entries = [entries[index] for index in probe_rows]
        configs = self._decode_fleet(probe_entries)
        for index in probe_rows:
            entry = entries[index]
            decision = self._with_estimates(
                workloads[index],
                entry,
                features[index],
                configs[id(entry)],
                explored=True,
            )
            if obs.enabled():
                # Probes never execute: no observed time, and the
                # explored flag keeps them out of the placement fold.
                chosen = decision.chosen
                self._record(
                    decision, chosen.spec, chosen.config, chosen.result, None, True
                )
        if obs.enabled():
            obs.counter("quality.exploration_probes", len(probe_rows))

    def encode(self, workloads: Sequence[Workload]) -> np.ndarray:
        """The batch's discretized ``(n, 17)`` feature matrix."""
        return encode_features_batch([(w.bvars, w.ivars) for w in workloads])

    def _choose_batch(
        self, workloads: Sequence[Workload]
    ) -> tuple[list[CachedDecision], np.ndarray]:
        """Cache-dedupe a batch and run one forward pass for the misses."""
        features = self.encode(workloads)
        return self.choose_encoded(features), features

    def choose_encoded(self, features: np.ndarray) -> list[CachedDecision]:
        """Decide a pre-encoded feature matrix through cache + one forward.

        Returns one :class:`CachedDecision` per input row, in order.
        Equal feature rows share a single prediction (first occurrence
        computes, the rest hit the freshly inserted cache entry or an
        in-batch memo when the cache is disabled or bypassed).  The async
        server calls this directly with memoized feature rows, skipping
        the encode pass for hot workloads.

        The plan tier is feature-pure, so decoding anchors on the fleet
        primaries; cache keys carry the fleet fingerprint, so a cache
        shared across two fleets keeps their decisions fully isolated.

        Raises:
            NotTrainedError: before the predictor is trained.
        """
        self.require_trained()
        with obs.span(
            "decision.choose",
            predictor=self.predictor_name,
            batch=len(features),
        ):
            return self._choose_encoded(features)

    def _choose_encoded(self, features: np.ndarray) -> list[CachedDecision]:
        keys = feature_keys_batch(
            features,
            fleet=self.fleet.fingerprint,
            predictor=self.predictor_tag,
        )
        # Row-aligned request trace ids (the server's flush scope); used
        # to stamp computed entries with their originating trace and to
        # link each cache hit back to the trace that computed the entry.
        row_traces: tuple[str, ...] = ()
        if obs.enabled():
            ids = obs.active_trace_ids()
            if len(ids) == len(keys):
                row_traces = ids
        cache = self.cache if self.cache_active else None
        decided: dict[tuple, CachedDecision | None] = {}
        miss_rows: list[int] = []
        for index, key in enumerate(keys):
            if key in decided:
                continue
            entry = cache.get(key) if cache is not None else None
            if entry is not None:
                decided[key] = entry
                if row_traces and entry.origin_trace is not None:
                    obs.trace_link(row_traces[index], entry.origin_trace)
            else:
                miss_rows.append(index)
                decided[key] = None  # placeholder: computed below
        if miss_rows:
            miss_features = features[miss_rows]
            with obs.span(
                "heteromap.predict_batch",
                predictor=self.predictor_name,
                batch=len(miss_rows),
            ):
                vectors = self.predictor.predict_batch(miss_features)
            if not self.predictor.batch_shape_independent:
                # Matrix models round a few ULP differently depending on
                # batch shape (BLAS GEMV vs blocked GEMM), so the same
                # row predicted alone vs inside a batch would decode to
                # configs that differ in their continuous knobs.
                # Quantizing ~1e6 ULPs above the noise makes every
                # decision a pure function of its feature row — the
                # invariant the decision cache, the async server's flush
                # batching, and the shard router's bit-identity gate all
                # rely on.
                vectors = np.round(vectors, _CANONICAL_DECIMALS)
            confidence: np.ndarray | None = None
            if self.track_confidence:
                # A pure side computation over the same miss rows; the
                # vectors above are what decode, so decisions are
                # untouched whether or not confidence is tracked.
                confidence = self.predictor.confidence_batch(
                    miss_features
                ).confidence
            decoded = decode_config_batch(
                vectors, self.fleet.primary_gpu, self.fleet.primary_multicore
            )
            for slot, (row, (spec, config), vector) in enumerate(
                zip(miss_rows, decoded, vectors)
            ):
                entry = CachedDecision(
                    spec=spec,
                    config=config,
                    vector=vector,
                    origin_trace=row_traces[row] if row_traces else None,
                    confidence=(
                        float(confidence[slot])
                        if confidence is not None
                        else None
                    ),
                )
                decided[keys[row]] = entry
                if cache is not None:
                    cache.put(keys[row], entry)
        if obs.enabled():
            obs.counter("serve.cache_hit", len(keys) - len(miss_rows))
            obs.counter("serve.cache_miss", len(miss_rows))
            obs.histogram("serve.predict_batch_size", len(miss_rows))
            self._export_cache_stats()
        return [decided[key] for key in keys]

    def _export_cache_stats(self) -> None:
        """Gauge the decision cache so ``repro-obs-report`` can show it."""
        if self.cache is None:
            return
        stats = self.cache.stats
        obs.gauge("serve.decision_cache_size", len(self.cache))
        obs.gauge("serve.decision_cache_capacity", self.cache.capacity)
        obs.gauge("serve.decision_cache_hits", stats.hits)
        obs.gauge("serve.decision_cache_misses", stats.misses)
        obs.gauge("serve.decision_cache_evictions", stats.evictions)

    # -- deciding (per-device fleet estimates) -------------------------------

    def decide(self, workload: Workload) -> Decision:
        """One workload's fleet-costed decision."""
        return self.decide_batch([workload])[0]

    def decide_batch(self, workloads: Sequence[Workload]) -> list[Decision]:
        """Choose deployments and cost every fleet device for a batch."""
        entries, features = self._choose_batch(workloads)
        configs = self._decode_fleet(entries)
        decisions = [
            self._with_estimates(workload, entry, row, configs[id(entry)])
            for workload, entry, row in zip(workloads, entries, features)
        ]
        if decisions and obs.enabled():
            # One cost-model evaluation per decision per fleet device.
            obs.counter("engine.estimates", len(self.fleet) * len(decisions))
        return decisions

    def _decode_fleet(
        self, entries: Sequence[CachedDecision]
    ) -> dict[int, tuple[MachineConfig, ...]]:
        """Per-device configs for each unique entry's predicted vector.

        One :func:`decode_config_for` pass per device over the unique
        vectors (cache hits and in-batch duplicates share rows), keyed by
        entry identity.
        """
        unique_rows: dict[int, int] = {}
        vectors: list[np.ndarray] = []
        for entry in entries:
            if id(entry) not in unique_rows:
                unique_rows[id(entry)] = len(vectors)
                vectors.append(entry.vector)
        if not vectors:
            return {}
        matrix = np.stack(vectors)
        per_device = [
            decode_config_for(matrix, spec) for spec in self.fleet.devices
        ]
        return {
            entry_id: tuple(configs[row] for configs in per_device)
            for entry_id, row in unique_rows.items()
        }

    def _with_estimates(
        self,
        workload: Workload,
        entry: CachedDecision,
        features: np.ndarray,
        configs: tuple[MachineConfig, ...],
        *,
        explored: bool = False,
    ) -> Decision:
        estimates = tuple(
            DeviceEstimate(
                spec=spec,
                config=config,
                result=simulate(workload.profile, spec, config),
            )
            for spec, config in zip(self.fleet.devices, configs)
        )
        chosen_index = select_chosen(
            estimates,
            prefer_multicore=not entry.spec.is_gpu,
            metric=self.metric,
        )
        runner_up_index = select_runner_up(estimates, chosen_index, self.metric)
        return Decision(
            workload=workload,
            estimates=estimates,
            chosen_index=chosen_index,
            runner_up_index=runner_up_index,
            vector=entry.vector,
            features=tuple(float(f) for f in features),
            confidence=entry.confidence,
            explored=explored,
        )

    # -- auditing -----------------------------------------------------------

    def audit(
        self,
        decision: Decision,
        spec: AcceleratorSpec,
        config: MachineConfig,
        result: SimulationResult,
    ) -> None:
        """Emit the decision-audit record for one executed placement.

        ``spec``/``config``/``result`` describe the deployment that
        actually ran (the scheduler may have overridden the predictor's
        choice); the runner-up column is the decision's best estimate on
        any *other* device, so a ``solo`` placement audits exactly like
        the pre-fleet pair path did.

        The record also carries the quality-observatory fields: the full
        per-device cost vector (the regret counterfactual), the executed
        time as ``observed_time_ms``, and the active request trace id
        when the placement ran under one.

        Call sites invoke this unconditionally: the attached online
        adapter (when any) observes every outcome even with observability
        off, and the obs record is only emitted when observability is on
        — with neither, the call is a pair of cheap branches.
        """
        if self.adapter is not None:
            self.adapter.observe(decision, spec, result)
        if obs.enabled():
            self._record(
                decision, spec, config, result, result.time_ms, decision.explored
            )

    def _record(
        self,
        decision: Decision,
        spec: AcceleratorSpec,
        config: MachineConfig,
        result: SimulationResult,
        observed_time_ms: float | None,
        explored: bool,
    ) -> None:
        """Write one audit record for ``decision`` deployed as
        ``spec``/``config`` with predicted ``result`` (obs enabled)."""
        runner_up = decision.runner_up_excluding(spec.name, self.metric)
        trace = obs.current_trace()
        obs.record_decision(
            obs.DecisionRecord(
                benchmark=decision.workload.benchmark,
                dataset=decision.workload.dataset,
                predictor=self.predictor_name,
                metric=self.metric,
                features=decision.features,
                chosen_accelerator=spec.name,
                config=obs.config_summary(config, is_gpu=spec.is_gpu),
                predicted_time_ms=result.time_ms,
                predicted_energy_j=result.energy_j,
                predicted_utilization=result.utilization,
                runner_up_accelerator=runner_up.spec.name,
                runner_up_time_ms=runner_up.time_ms,
                devices=tuple(e.spec.name for e in decision.estimates),
                costs_ms=decision.costs_ms,
                observed_time_ms=observed_time_ms,
                trace_id=trace.trace_id if trace is not None else None,
                confidence=decision.confidence,
                explored=explored,
            )
        )

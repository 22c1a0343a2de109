"""HeteroMap: the end-to-end framework (Figure 8's flow).

``HeteroMap`` owns an accelerator fleet (the paper's pair is the N=2
case), an offline-trained predictor, and the deployment plumbing:

1. **offline** — :meth:`train` generates synthetic benchmark/input
   combinations, auto-tunes them on the simulated reference pair (the
   fleet's primary GPU and multicore), and fits the configured predictor
   on the resulting database;
2. **online** — :meth:`run` discretizes a real benchmark-input combination
   into (B, I), predicts M choices, deploys on the chosen accelerator, and
   reports the completion time *including* the predictor's measured
   inference overhead (the paper's accounting).

The online path is a thin composition over the layered fleet runtime in
:mod:`repro.runtime.engine`: a
:class:`~repro.runtime.engine.decision.DecisionService` (cached batched
prediction, costed on every fleet device), a
:class:`~repro.runtime.engine.scheduler.Scheduler` (``solo`` /
``load-aware`` / ``makespan`` placement policies), and a pluggable
:class:`~repro.runtime.engine.execution.ExecutionBackend`.
:meth:`run_many` keeps the historical list-of-outcomes API (its default
``solo`` policy is bit-identical to the pre-engine serial path);
:meth:`run_fleet` returns the full
:class:`~repro.runtime.engine.contracts.FleetReport` with per-device
utilization and the batch makespan.

Baselines (:meth:`run_single_accelerator`, :meth:`run_ideal`) reproduce
the GPU-only / multicore-only / manually-tuned comparisons of Section VII.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.accel.simulator import SimulationResult
from repro.core.database import TrainingDatabase
from repro.core.overhead import measure_overhead_ms
from repro.core.predictors import LearnedPredictor, make_predictor
from repro.core.training import build_training_database
from repro.errors import NotTrainedError
from repro.machine.fleet import Fleet
from repro.machine.mvars import MachineConfig, default_config
from repro.machine.specs import DEFAULT_PAIR, AcceleratorSpec
from repro.runtime.deploy import (
    Workload,
    WorkloadLike,
    prepare_workload,
    prepare_workloads,
    run_workload,
)
from repro.runtime.engine import (
    DecisionService,
    Engine,
    ExecutionBackend,
    FleetReport,
    RunOutcome,
    Scheduler,
)
from repro.runtime.serving import DecisionCache, capacity_from_env
from repro.tuning.exhaustive import best_on_accelerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.core.online import (
        AdaptationConfig,
        ExplorationConfig,
        ExplorationPolicy,
        OnlineAdapter,
    )

__all__ = ["HeteroMap", "RunOutcome"]


class HeteroMap:
    """Runtime performance predictor for an N-accelerator system."""

    def __init__(
        self,
        fleet: "Fleet | Iterable[str | AcceleratorSpec]" = DEFAULT_PAIR,
        *,
        predictor: str = "deep128",
        metric: str = "time",
        seed: int = 0,
        cache_capacity: int | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        """Configure a HeteroMap instance.

        Args:
            fleet: the device set — a :class:`~repro.machine.fleet.Fleet`,
                or an iterable of accelerator registry names and/or
                :class:`AcceleratorSpec` objects, in any order.  Needs at
                least one GPU and one multicore; the historical
                ``(gpu, multicore)`` pair is simply the N=2 case.
                Devices are ordered GPUs first (input order within each
                kind), which keeps pair reports in their historical
                ``(gpu, multicore)`` row order.
            predictor: learner name (see ``predictor_names()``).
            metric: tuning objective — "time", "energy", or "edp".
            seed: seed for training-set generation and learner init.
            cache_capacity: decision-cache size for the serving paths;
                0 disables caching.  ``None`` (the default) reads the
                ``REPRO_DECISION_CACHE`` environment variable, falling
                back to 4096.
            backend: execution backend for the engine; defaults to the
                cost-model :class:`SimulatedBackend`.

        Raises:
            UnknownAcceleratorError: for unregistered names, duplicate
                devices, or a fleet missing either M1 kind.
            ValueError: for a malformed ``REPRO_DECISION_CACHE``.
        """
        base = fleet if isinstance(fleet, Fleet) else Fleet.from_names(fleet)
        # GPUs first, then multicores, keeping input order within each
        # kind: the pair's FleetReport rows stay (gpu, multicore).
        self.fleet = Fleet(base.gpus + base.multicores)
        self.gpu: AcceleratorSpec = self.fleet.primary_gpu
        self.multicore: AcceleratorSpec = self.fleet.primary_multicore
        self.metric = metric
        self.seed = seed
        self.predictor_name = predictor
        self.predictor = make_predictor(
            predictor, self.gpu, self.multicore, seed=seed
        )
        self.database: TrainingDatabase | None = None
        capacity = (
            capacity_from_env() if cache_capacity is None else cache_capacity
        )
        self.decisions = DecisionService(
            self.predictor,
            self.fleet,
            predictor_name=predictor,
            metric=metric,
            cache=DecisionCache(capacity) if capacity > 0 else None,
        )
        self.scheduler = Scheduler(self.fleet)
        self.engine = Engine(self.decisions, self.scheduler, backend)

    @classmethod
    def with_default_pair(cls, **kwargs) -> "HeteroMap":
        """The paper's primary setup: GTX-750Ti + Xeon Phi 7120P."""
        return cls(DEFAULT_PAIR, **kwargs)

    @property
    def decision_cache(self) -> DecisionCache | None:
        """The decision layer's exact LRU cache (``None`` when disabled)."""
        return self.decisions.cache

    # -- offline ----------------------------------------------------------

    def train(
        self,
        num_samples: int = 400,
        *,
        seed: int | None = None,
        database: TrainingDatabase | None = None,
    ) -> TrainingDatabase:
        """Run the offline pipeline and fit the predictor.

        A pre-built ``database`` (e.g. shared across learners in the
        Table IV experiment) skips the auto-tuning sweep.
        """
        with obs.span(
            "heteromap.train",
            predictor=self.predictor_name,
            num_samples=num_samples,
            prebuilt=database is not None,
        ):
            if database is None:
                database = build_training_database(
                    self.gpu,
                    self.multicore,
                    num_samples=num_samples,
                    metric=self.metric,
                    seed=self.seed if seed is None else seed,
                )
            self.database = database
            if isinstance(self.predictor, LearnedPredictor):
                with obs.span("heteromap.fit", predictor=self.predictor_name):
                    self.predictor.fit(*database.matrices())
            self.decisions.overhead_ms = measure_overhead_ms(self.predictor)
            obs.gauge("heteromap.overhead_ms", self.decisions.overhead_ms)
            # A refit changes predictions; memoized decisions from the
            # previous model must not survive it.
            self.decisions.clear_cache()
        return database

    @property
    def overhead_ms(self) -> float:
        """Measured predictor inference latency (ms).

        Raises:
            NotTrainedError: before :meth:`train`.
        """
        if self.decisions.overhead_ms is None:
            raise NotTrainedError("call train() before querying overhead")
        return self.decisions.overhead_ms

    # -- online adaptation --------------------------------------------------

    def enable_exploration(
        self, config: "ExplorationConfig | None" = None, *, seed: int | None = None
    ) -> "ExplorationPolicy":
        """Attach a low-confidence exploration policy to the plan tier.

        Rows whose prediction confidence falls below the configured
        threshold earn (seeded-epsilon, budget-capped) simulate-only
        probes on every fleet device, recorded as ``explored`` audit
        records.  Served plans never change; with the policy detached the
        path is bit-identical to plain :meth:`plan_batch`.
        """
        from repro.core.online import ExplorationPolicy

        policy = ExplorationPolicy(
            config, seed=self.seed if seed is None else seed
        )
        self.decisions.exploration = policy
        self.decisions.track_confidence = True
        return policy

    def enable_adaptation(
        self, config: "AdaptationConfig | None" = None
    ) -> "OnlineAdapter":
        """Close the loop: observe outcomes, retrain on drift, promote.

        Attaches an :class:`~repro.core.online.OnlineAdapter` that folds
        every executed placement into per-device correction ratios and a
        bounded retraining buffer, fits a candidate predictor when its
        Page–Hinkley detector alarms, shadow-scores it behind the
        incumbent, and promotes through
        :meth:`~repro.runtime.engine.decision.DecisionService.swap_predictor`
        (generation-bumped cache keys make the swap atomic).  Candidates
        are fresh ``make_predictor`` instances of this map's family, fit
        on the offline database plus the replicated correction buffer.

        Raises:
            NotTrainedError: before :meth:`train` (the adapter refits
                from the offline database's matrices).
        """
        from repro.core.online import OnlineAdapter

        self.decisions.require_trained()
        base_matrices = None
        if self.database is not None and len(self.database) > 0:
            base_matrices = self.database.matrices()
        adapter = OnlineAdapter(
            self.decisions,
            make_candidate=lambda: make_predictor(
                self.predictor_name, self.gpu, self.multicore, seed=self.seed
            ),
            base_matrices=base_matrices,
            config=config,
        )
        self.decisions.adapter = adapter
        self.decisions.track_confidence = True
        return adapter

    # -- online -----------------------------------------------------------

    def predict(self, workload: Workload) -> tuple[AcceleratorSpec, MachineConfig]:
        """Predict the deployment for a prepared workload."""
        return self.predictor.predict_config(
            workload.bvars, workload.ivars, self.gpu, self.multicore
        )

    def run(self, benchmark: str, dataset: str) -> RunOutcome:
        """Schedule and execute one benchmark-input combination."""
        workload = prepare_workload(benchmark, dataset)
        return self.run_workload(workload)

    def run_workload(self, workload: Workload) -> RunOutcome:
        """Schedule and execute a prepared workload.

        With observability enabled, every call also emits a
        :class:`repro.obs.DecisionRecord`: the (B, I) inputs, the chosen
        deployment, its predicted time/energy/utilization, and the margin
        over the runner-up accelerator (the decision layer's estimate of
        the same predicted knob vector with the M1 bit flipped).
        """
        overhead_ms = self.decisions.require_trained()
        with obs.span(
            "heteromap.run_workload",
            benchmark=workload.benchmark,
            dataset=workload.dataset,
        ) as span:
            decision = self.decisions.decide(workload)
            result = self.engine.backend.execute(
                workload, decision.spec, decision.config
            )
            span.set(chosen=decision.spec.name)
            # Unconditional: with obs off this only feeds the online
            # adapter (when attached), otherwise it is a cheap branch.
            self.decisions.audit(
                decision, decision.spec, decision.config, result
            )
        return RunOutcome.from_execution(
            workload, decision.spec, decision.config, result, overhead_ms
        )

    # -- batched serving ---------------------------------------------------

    def plan_batch(
        self, workloads: Iterable[WorkloadLike]
    ) -> list[tuple[AcceleratorSpec, MachineConfig]]:
        """Predict deployments for a batch of workloads in one pass.

        Items may be prepared :class:`Workload` objects or raw
        ``(benchmark, dataset)`` pairs, from any iterable (generators are
        materialized once).  The batch is deduped through the decision
        cache (the discretized feature lattice makes hits exactly equal
        to fresh predictions); the remaining misses run one batched
        forward + decode and are fanned back out in input order.

        Raises:
            NotTrainedError: before :meth:`train`.
        """
        return self.decisions.plan_batch(prepare_workloads(workloads))

    def run_many(
        self, items: Iterable[WorkloadLike], *, policy: str = "solo"
    ) -> list[RunOutcome]:
        """Schedule and execute a batch of benchmark-input combinations.

        The planning half of :meth:`run` is amortized over the batch via
        the decision layer's cache + batched forward; placement follows
        ``policy`` (default ``solo`` — each workload on its
        predictor-chosen device, executed serially, bit-identical to the
        historical behavior).  ``"load-aware"`` / ``"makespan"`` let the
        scheduler trade devices against each other; use
        :meth:`run_fleet` for the per-device accounting.
        """
        workloads = prepare_workloads(items)
        with obs.span("heteromap.run_many", batch=len(workloads)) as span:
            report = self.engine.run_fleet(workloads, policy=policy)
            span.set(
                chosen=",".join(
                    sorted({o.chosen_accelerator for o in report.outcomes})
                )
            )
        return list(report.outcomes)

    def run_fleet(
        self, items: Iterable[WorkloadLike], *, policy: str = "load-aware"
    ) -> FleetReport:
        """Run a batch as a fleet and return the full accounting.

        The :class:`FleetReport` carries the outcomes (input order), the
        per-device queue depths / busy / idle / utilization, the batch
        makespan, and the serial (solo) baseline the makespan is judged
        against.

        Raises:
            NotTrainedError: before :meth:`train`.
            ValueError: for an unknown policy.
        """
        return self.engine.run_fleet(prepare_workloads(items), policy=policy)

    # -- baselines ----------------------------------------------------------

    def run_single_accelerator(
        self, workload: Workload, which: str, *, tuned: bool = True
    ) -> SimulationResult:
        """GPU-only / multicore-only baseline.

        Args:
            workload: prepared workload.
            which: "gpu" or "multicore".
            tuned: sweep the lattice (the paper manually tunes baselines
                with OpenTuner) instead of the untuned default config.
        """
        spec = self.gpu if which == "gpu" else self.multicore
        if tuned:
            return best_on_accelerator(workload.profile, spec, metric=self.metric)
        return run_workload(workload, spec, default_config(spec))

    def run_ideal(self, workload: Workload) -> SimulationResult:
        """The ideal oracle: best lattice point across every fleet
        device, with no predictor overhead."""
        candidates = [
            best_on_accelerator(workload.profile, spec, metric=self.metric)
            for spec in self.fleet.devices
        ]
        return min(candidates, key=lambda result: result.objective(self.metric))

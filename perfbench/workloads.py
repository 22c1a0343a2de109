"""The four benchmark workloads; ``run.py`` starts each in a fresh process.

    python3 perfbench/workloads.py --workload serve_hot --seed 1 --seconds 15 --trace 0

Every workload drives the program from this one process and thread, with
inputs generated here from ``--seed``.  It prints one JSON line: the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``), the values that must repeat exactly on the same seed, the
output checks and the request accounting.  ``run.py`` adds ``setup_s``,
checks the trace cache and the determinism ledger, and prints the report.

Why these four (README.md has the layer table):

* ``serve_hot``  — 81 hot keys through the plan-mode ``DecisionServer``:
  admission, flush assembly, feature memo and cache hits do the work.
* ``serve_miss`` — the same server over a synthetic pool 4x larger than
  the decision cache and the feature memo: encode, forward and decode on
  every request, cache inserts and evictions.
* ``fleet_run``  — ``HeteroMap.run_fleet`` on a 4-device fleet, no
  server: per-device cost estimates, placement and execution.
* ``adapt_drift`` — decide → execute → audit one request at a time under
  injected GPU drift: the online adapter's refits and shadow scoring.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import plan_mismatches  # noqa: E402
from hostspeed import REFERENCE_RATE, Pace, reference_rate  # noqa: E402
from layertrace import (  # noqa: E402
    SpanRecorder,
    coverage,
    in_windows,
    standard_targets,
    summarize,
)
from metrics import END_TO_END, PER_LAYER, PRINTED_ONLY, WORKLOADS  # noqa: E402
from repro.core.heteromap import HeteroMap  # noqa: E402
from repro.core.online import AdaptationConfig, DriftInjectedBackend  # noqa: E402
from repro.features.profiles import benchmark_names  # noqa: E402
from repro.graph.datasets import dataset_names  # noqa: E402
from repro.machine.fleet import synthetic_fleet  # noqa: E402
from repro.machine.specs import DEFAULT_PAIR  # noqa: E402
from repro.runtime import deploy  # noqa: E402
from repro.runtime.engine import RunOutcome  # noqa: E402
from repro.runtime.engine.execution import SimulatedBackend  # noqa: E402
from repro.runtime.loadgen import poisson_arrivals, run_open_loop  # noqa: E402
from repro.runtime.server import (  # noqa: E402
    DecisionServer,
    ServerConfig,
    low_latency_gc,
)
from repro.workload.profile import build_profile  # noqa: E402
from repro.workload.synthetic import generate_samples  # noqa: E402

#: Training is program configuration, not workload input: one fixed seed,
#: so every run serves the same model and decisions repeat exactly.
TRAIN_SEED = 0

#: Closed-loop wave: the server's default ``max_batch``, so each wave is
#: one inline size flush.
WAVE = ServerConfig().max_batch

#: serve_hot's open-loop offered rate: about a quarter of the closed-loop
#: capacity of a 2-CPU host, fixed so that a faster program is offered the
#: same load as its parent.
OPEN_RATE_PER_S = 40_000.0

#: Share of ``--seconds`` serve_hot spends in its open-loop phase; the
#: rest goes to the closed loop, which gives the bounded throughput.
OPEN_SHARE = 1 / 3

#: Timed phases are cut into windows of this many seconds of timed work;
#: throughput and latency percentiles, each scaled to the reference host
#: by the bursts run between the window's slices (``hostspeed.py``), are
#: medians over the windows.
WINDOW_S = 1.0

#: During set-up a reference burst runs once this many seconds of set-up
#: work have passed since the last; ``setup_s`` is scaled to the
#: reference host by their mean rate.
SETUP_BURST_EVERY_S = 0.25

#: Share of ``--seconds`` a traced run spends untraced; the traced replay
#: of the same work follows, and their wall times give the overhead.
UNTRACED_SHARE = 0.35

FLEET_SIZE = 4
FLEET_POLICY = "load-aware"

#: adapt_drift: the GPU kind runs this much slower after the first third
#: of each episode, and the adapter uses the ``adaptation_loop`` bench
#: settings, which retrain on ~2% of requests (defaults: ~1%, too few for
#: the p99 to read a retrain on every run).
DRIFT_FACTOR = 4.0
ADAPT_CONFIG = AdaptationConfig(
    cooldown=32, shadow_window=24, min_buffer=8, drift_min_samples=8
)


@dataclass(frozen=True)
class Size:
    """Input sizes; ``TINY`` only exercises the plumbing in tests."""

    real_stride: int  # every n-th of the 81 real benchmark x dataset pairs
    train_samples: int
    miss_pool: int  # serve_miss synthetic workloads
    check_requests: int  # served plans compared with plan_batch
    rss_requests: int  # serve_* requests before peak RSS is read
    hot_stream: int  # serve_hot closed-loop stream length (cycled)
    fleet_batch: int
    fleet_cycle: int  # distinct seeded batches, run in a cycle
    adapt_streams: int  # distinct seeded episode streams
    adapt_laps: int  # passes over the real workloads per episode


FULL = Size(1, 120, 16_384, 4_096, 1 << 16, 1 << 16, 27, 288, 8, 3)
TINY = Size(3, 48, 1_024, 512, 1_024, 4_096, 3, 6, 1, 9)


def real_pairs(stride: int = 1) -> list[tuple[str, str]]:
    """The 81 real benchmark x dataset pairs (every ``stride``-th)."""
    return [(b, d) for b in benchmark_names() for d in dataset_names()][::stride]


def balanced(rng: np.random.Generator, items: int, length: int) -> list[int]:
    """Seeded indices in which every item appears equally often: whole
    permutations back to back, cut to ``length``.  Means over the stream
    then depend on the seed only through order, not through how often a
    rare, expensive workload happened to be drawn."""
    laps = -(-length // items)
    return np.concatenate([rng.permutation(items) for _ in range(laps)])[
        :length
    ].tolist()


def percentile_row(samples_ms: list[float] | np.ndarray) -> dict:
    """p50 and p99 with the sample count and the count beyond the p99."""
    values = np.asarray(samples_ms, dtype=np.float64)
    if not values.size:
        return {"p50": 0.0, "p99": 0.0, "samples": 0, "beyond_p99": 0}
    p50, p99 = np.percentile(values, [50, 99])
    return {
        "p50": float(p50),
        "p99": float(p99),
        "samples": int(values.size),
        "beyond_p99": int((values > p99).sum()),
    }


def windowed(pace: Pace, latencies_ms) -> dict:
    """Throughput and latency percentiles per window, scaled to the
    reference host, and their medians.

    ``latencies_ms`` holds every request of the paced phase, in order.
    A window's host speed is the mean rate of the reference bursts run
    between its slices over ``REFERENCE_RATE``; its throughput (requests
    over timed seconds) is divided by that speed and its latencies are
    multiplied by it."""
    latencies = np.asarray(latencies_ms, dtype=np.float64)
    rates, raw, speeds, p50s, p99s = [], [], [], [], []
    lo = 0
    for requests, seconds, reference in pace.windows(WINDOW_S):
        speed = reference / REFERENCE_RATE
        raw.append(requests / seconds)
        rates.append(requests / seconds / speed)
        speeds.append(speed)
        p50, p99 = np.percentile(latencies[lo : lo + requests], [50, 99]) * speed
        p50s.append(float(p50))
        p99s.append(float(p99))
        lo += requests
    return {
        "throughput_per_s": float(np.median(rates)),
        "p50": float(np.median(p50s)),
        "p99": float(np.median(p99s)),
        "raw_per_s": float(np.median(raw)),
        "host_speed": float(np.median(speeds)),
        "windows": len(rates),
        "window_rates": rates,
        "window_speeds": speeds,
    }


class Run:
    """One workload process: its inputs, timers, recorder and results."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = TINY if args.tiny else FULL
        self.rng = np.random.default_rng(args.seed)
        self.recorder = SpanRecorder() if args.trace else None
        self.targets: list = []
        #: Benchmark-side input generation and reference bursts inside
        #: the set-up window.
        self.excluded_s = 0.0
        #: Reference rates of the bursts run during set-up.
        self.setup_rates: list[float] = []
        self._last_burst = 0.0
        #: time.monotonic() at the first timed request (run.py's clock).
        self.t_first: float | None = None
        #: Peak RSS after set-up and a fixed count of requests.
        self.rss_mb: float | None = None
        #: perf_counter() when the warm pass began.
        self.warm_start = 0.0
        #: Traced timed windows (perf_counter) for coverage.
        self.windows: list[tuple[float, float]] = []
        self.trace_cache_misses = 0
        self.metrics: dict[str, float] = {}
        self.diagnostics: dict = {}
        self.deterministic: dict = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._count_trace_cache_misses()
        self.setup_burst(force=True)

    def _count_trace_cache_misses(self) -> None:
        original = deploy.load_trace

        def load_trace(key):
            trace = original(key)
            if trace is None:
                self.trace_cache_misses += 1
            return trace

        deploy.load_trace = load_trace

    @contextmanager
    def excluded(self):
        """Time spent generating inputs, left out of ``setup_s``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - start

    def setup_burst(self, force: bool = False) -> None:
        """During set-up, a reference burst once ``SETUP_BURST_EVERY_S``
        of set-up work has passed; its time is left out of ``setup_s``."""
        now = time.perf_counter()
        if force or now - self._last_burst >= SETUP_BURST_EVERY_S:
            self.setup_rates.append(reference_rate())
            self._last_burst = time.perf_counter()
            self.excluded_s += self._last_burst - now

    def first_timed(self) -> None:
        if self.t_first is None:
            self.setup_burst(force=True)
            self.t_first = time.monotonic()

    def sample_rss(self) -> None:
        """Read the peak RSS once, after the fixed request count."""
        if self.rss_mb is None:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def build_map(self, fleet, predictor: str, backend_cls=SimulatedBackend):
        """A trained map; a traced run starts recording before training."""
        hetero = HeteroMap(fleet, predictor=predictor, seed=TRAIN_SEED)
        if self.recorder is not None:
            self.targets = standard_targets(type(hetero.predictor), backend_cls)
            self.recorder.install(self.targets)
        hetero.train(num_samples=self.size.train_samples)
        self.setup_burst()
        return hetero

    def reference_map(self, fleet, predictor: str) -> HeteroMap:
        """A second map trained exactly like the served one, so expected
        plans are recomputed, never read from the served map's decision
        cache or feature memo."""
        reference = HeteroMap(fleet, predictor=predictor, seed=TRAIN_SEED)
        reference.train(num_samples=self.size.train_samples)
        return reference

    def real_workloads(self) -> list:
        workloads = []
        for benchmark, dataset in real_pairs(self.size.real_stride):
            workloads.append(deploy.prepare_workload(benchmark, dataset))
            self.setup_burst()
        return workloads

    def begin_warm(self) -> None:
        self.warm_start = time.perf_counter()

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def closed_loop(
        self, step, seconds: float, per_step: int, min_steps: int, rss_steps: int
    ) -> tuple[int, Pace]:
        """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` of timed
        work have passed and at least ``min_steps`` ran, with reference
        bursts between slices; each step sends ``per_step`` requests.
        Peak RSS is read after ``rss_steps`` steps.  Returns (steps, the
        pace, whose ``timed_s`` is the timed wall time).

        In a traced run the recorder is off here."""
        if self.recorder is not None:
            self.recorder.uninstall()
        self.first_timed()
        pace = Pace()
        steps = 0
        pace.start()
        while True:
            step(steps)
            steps += 1
            end = pace.done(per_step)
            if steps == rss_steps:
                self.sample_rss()
            if end >= seconds and steps >= max(min_steps, rss_steps):
                pace.stop()
                return steps, pace

    def traced_replay(self, step, steps: int) -> float:
        """Run ``step(0..steps-1)`` again with the recorder on."""
        self.recorder.install(self.targets)
        start = time.perf_counter()
        for index in range(steps):
            self.recorder.current_tag = index
            step(index)
        end = time.perf_counter()
        self.recorder.uninstall()
        self.windows.append((start, end))
        return end - start


# -- serve_hot / serve_miss ----------------------------------------------------


def _server_loop_step(server: DecisionServer, sequence: list, check_n: int, served: list):
    """One closed-loop wave: ``WAVE`` try_submit calls, then flush_now.

    The first ``check_n`` requests carry a callback that keeps their
    served plan for the plan check; the rest carry none."""
    n = len(sequence)

    def keep(tag, result):
        served[tag] = result

    def step(wave: int) -> None:
        submit = server.try_submit  # looked up per wave: tracing may wrap it
        base = wave * WAVE
        if base < check_n:
            for j in range(base, base + WAVE):
                submit(sequence[j % n], tag=j, callback=keep)
        else:
            for j in range(base, base + WAVE):
                submit(sequence[j % n])
        server.flush_now()

    return step


def _server_window(server: DecisionServer):
    """Indices into the server's stats lists, to slice one phase out."""
    stats = server.stats
    return (
        len(stats.latencies_ms),
        len(stats.batch_sizes),
        stats.admitted,
        stats.completed,
        stats.rejected,
        stats.dropped,
    )


def _server_phase(server: DecisionServer, since) -> dict:
    stats = server.stats
    lat0, batch0, admitted0, completed0, rejected0, dropped0 = since
    return {
        "latencies_ms": stats.latencies_ms[lat0:],
        "queue_waits_ms": stats.queue_waits_ms[lat0:],
        "batch_sizes": stats.batch_sizes[batch0:],
        "admitted": stats.admitted - admitted0,
        "completed": stats.completed - completed0,
        "rejected": stats.rejected - rejected0,
        "dropped": stats.dropped - dropped0,
    }


def _cache_counts(hetero: HeteroMap) -> tuple[int, int, int]:
    stats = hetero.decision_cache.stats
    return stats.hits, stats.lookups, stats.evictions


def _cache_delta(hetero: HeteroMap, before: tuple[int, int, int]) -> tuple[int, int, int]:
    """(hits, lookups, evictions) since ``before``."""
    return tuple(now - then for now, then in zip(_cache_counts(hetero), before))


def _hit_ratio(cache: tuple[int, int, int]) -> float:
    hits, lookups, _ = cache
    return hits / lookups if lookups else 0.0


def served_plan_errors(reference: HeteroMap, requests: list, served: list) -> list[str]:
    """The plan check: every served plan must equal, bit for bit, the
    plan ``reference.decisions.plan_batch`` computes for its workload."""
    if any(result is None for result in served):
        return ["plan check: a sampled request never resolved"]
    bad = plan_mismatches(served, reference.decisions.plan_batch(requests))
    if bad:
        return [f"plan check: {len(bad)} served plans differ (first {bad[0]})"]
    return []


def _check_plans_and_cost(run: Run, requests: list, served: list) -> None:
    """Plan check plus the served decisions' simulated cost, both from a
    reference map trained like the served one (``Run.reference_map``).

    The requests, costed by the decide tier, give ``makespan_ms`` (per
    wave, each device drains its share of the wave's plans) and
    ``regret_ms`` (served plan time minus the best device estimate)."""
    reference = run.reference_map(DEFAULT_PAIR, "deep128")
    run.errors.extend(served_plan_errors(reference, requests, served))
    decisions = reference.decisions.decide_batch(requests)
    makespans = []
    for start in range(0, len(decisions), WAVE):
        busy: dict[str, float] = {}
        for decision in decisions[start : start + WAVE]:
            name = decision.chosen.spec.name
            busy[name] = busy.get(name, 0.0) + decision.chosen.time_ms
        makespans.append(max(busy.values()))
    regrets = [
        decision.chosen.time_ms - min(e.time_ms for e in decision.estimates)
        for decision in decisions
    ]
    run.deterministic["makespan_ms"] = float(np.mean(makespans))
    run.deterministic["regret_ms"] = float(np.mean(regrets))


def _serve_closed(
    run: Run,
    hetero: HeteroMap,
    server: DecisionServer,
    sequence: list,
    seconds: float,
    check_n: int,
):
    """The closed-loop phase (plus its traced replay in a traced run);
    the first ``check_n`` requests feed the plan check."""
    served: list = [None] * check_n
    step = _server_loop_step(server, sequence, check_n, served)
    since = _server_window(server)
    cache_before = _cache_counts(hetero)
    steps, pace = run.closed_loop(
        step,
        seconds,
        WAVE,
        min_steps=-(-check_n // WAVE),
        rss_steps=run.size.rss_requests // WAVE,
    )
    phase = _server_phase(server, since)
    cache = _cache_delta(hetero, cache_before)
    requests = steps * WAVE
    run.attempted += requests
    run.failed += requests - phase["completed"]  # rejected, dropped or unresolved
    if server.pending or phase["completed"] != phase["admitted"]:
        run.errors.append("closed loop: admitted requests left unresolved")
    closed = {
        "requests": requests,
        "wall_s": pace.timed_s,
        "cache": cache,
        "windowed": windowed(pace, phase["latencies_ms"]),
        "requested": [sequence[j % len(sequence)] for j in range(check_n)],
        "served": served,
        **phase,
    }
    if run.traced:
        cache_before = _cache_counts(hetero)
        since = _server_window(server)
        closed["traced_wall_s"] = run.traced_replay(step, steps)
        closed["traced"] = _server_phase(server, since)
        closed["traced_cache"] = _cache_delta(hetero, cache_before)
    return closed


def _end_to_end_closed(run: Run, closed: dict) -> None:
    windows = closed["windowed"]
    run.metrics.update(
        throughput_per_s=windows["throughput_per_s"],
        latency_p50_ms=windows["p50"],
        latency_p99_ms=windows["p99"],
        makespan_ms=run.deterministic["makespan_ms"],
        regret_ms=run.deterministic["regret_ms"],
    )
    run.diagnostics["closed_loop"] = {
        "overall_per_s": closed["completed"] / closed["wall_s"],
        "latency_ms": percentile_row(closed["latencies_ms"]),
        "windows": windows,
    }
    run.diagnostics["peak_rss_after_requests"] = run.size.rss_requests


def serve_hot(run: Run) -> None:
    hetero = run.build_map(DEFAULT_PAIR, "deep128")
    pool = run.real_workloads()
    if run.traced:
        # The closed loop untraced, its traced replay, a short open loop.
        closed_s = run.seconds * UNTRACED_SHARE
        open_s = run.seconds * OPEN_SHARE * (1.0 - 2 * UNTRACED_SHARE)
    else:
        closed_s = run.seconds * (1.0 - OPEN_SHARE)
        open_s = run.seconds * OPEN_SHARE
    with run.excluded():
        sequence = [pool[i] for i in balanced(run.rng, len(pool), run.size.hot_stream)]
        arrivals = poisson_arrivals(OPEN_RATE_PER_S, open_s, seed=run.seed)
        open_sequence = [pool[i] for i in balanced(run.rng, len(pool), len(arrivals))]
    run.begin_warm()
    hetero.plan_batch(pool)
    server = DecisionServer(hetero.decisions)
    for workload in pool:
        server.try_submit(workload)
    server.flush_now()
    with low_latency_gc():
        closed = _serve_closed(
            run, hetero, server, sequence, closed_s, run.size.check_requests
        )
        since = _server_window(server)
        cache_before = _cache_counts(hetero)
        # Traced, the open loop feeds the queue-wait and lateness metrics;
        # it is no coverage window, since the process idles between
        # arrivals.
        if run.traced:
            run.recorder.install(run.targets)
        report = asyncio.run(run_open_loop(server, arrivals, open_sequence))
        if run.traced:
            run.recorder.uninstall()
        opened = _server_phase(server, since)
        open_cache = _cache_delta(hetero, cache_before)
    _check_plans_and_cost(run, closed["requested"], closed["served"])
    run.attempted += report.offered
    run.failed += report.offered - report.completed
    if report.dropped or report.admitted != report.completed:
        run.errors.append("open loop: admitted requests left unresolved")
    open_latency = percentile_row(opened["latencies_ms"])
    run.diagnostics["open_loop"] = {
        "offered_per_s": OPEN_RATE_PER_S,
        "offered": report.offered,
        "sustained_per_s": report.sustained_per_sec,
        "rejected": report.rejected,
        "latency_ms": open_latency,
        "mean_batch": report.mean_batch,
    }
    if run.traced:
        run.metrics.update(
            layer_metrics(
                run,
                requests=closed["requests"] + report.offered,
                server_phase=opened,
                cache=tuple(a + b for a, b in zip(closed["traced_cache"], open_cache)),
                overhead=closed["traced_wall_s"] / closed["wall_s"] - 1.0,
            )
        )
        run.deterministic["predictors.predict_rows"] = run.metrics["predictors.predict_rows"]
        return
    _end_to_end_closed(run, closed)
    run.metrics["latency_p50_ms"] = open_latency["p50"]
    run.diagnostics["cache_hit_ratio"] = _hit_ratio(
        tuple(a + b for a, b in zip(closed["cache"], open_cache))
    )


def synthetic_pool(count: int, seed: int) -> list:
    """Synthetic benchmark/input workloads, profiled the way
    ``core.training.label_sample`` profiles a training sample."""
    pool = []
    for index, sample in enumerate(generate_samples(count, seed=seed)):
        graph = sample.graph
        profile = build_profile(
            sample.trace,
            sample.bvars,
            target_vertices=graph.num_vertices,
            target_edges=graph.num_edges,
            source_vertices=graph.num_vertices,
            source_edges=graph.num_edges,
        )
        pool.append(
            deploy.Workload(
                benchmark="synthetic",
                dataset=f"pool-{seed}-{index}",
                bvars=sample.bvars,
                ivars=sample.ivars,
                profile=profile,
            )
        )
    return pool


def serve_miss(run: Run) -> None:
    hetero = run.build_map(DEFAULT_PAIR, "deep128")
    with run.excluded():
        # seed + 1 keeps the pool's generator stream apart from training's.
        pool = synthetic_pool(run.size.miss_pool, seed=TRAIN_SEED + 1 + run.seed)
    run.begin_warm()
    server = DecisionServer(hetero.decisions)
    for workload in pool[-WAVE:]:
        server.try_submit(workload)
    server.flush_now()
    seconds = run.seconds * (UNTRACED_SHARE if run.traced else 1.0)
    # The whole pool is checked and costed: its workloads are random
    # draws, and means over a sample of them would swing with the seed.
    with low_latency_gc():
        closed = _serve_closed(run, hetero, server, pool, seconds, len(pool))
    _check_plans_and_cost(run, closed["requested"], closed["served"])
    run.diagnostics["pool"] = len(pool)
    if run.traced:
        phase = closed["traced"]
        run.metrics.update(
            layer_metrics(
                run,
                requests=closed["requests"],
                server_phase=phase,
                cache=closed["traced_cache"],
                overhead=closed["traced_wall_s"] / closed["wall_s"] - 1.0,
            )
        )
        return
    _end_to_end_closed(run, closed)
    run.diagnostics["cache_hit_ratio"] = _hit_ratio(closed["cache"])


# -- fleet_run -----------------------------------------------------------------


def _first_run_of_batch(run: Run, k: int, batch: list, report) -> tuple[float, float]:
    """Output checks on a batch's first run; returns its makespan and mean
    regret (placed time minus the best device estimate).  Only these two
    numbers are kept: holding every report would grow the heap through
    the first lap and slow it."""
    inputs = [(w.benchmark, w.dataset) for w in batch]
    outputs = [(o.benchmark, o.dataset) for o in report.outcomes]
    if inputs != outputs:
        run.errors.append(f"fleet batch {k}: outcomes do not match inputs")
    if not report.makespan_ms <= report.serial_ms:
        run.errors.append(f"fleet batch {k}: makespan exceeds serial time")
    regret = np.mean(
        [
            placement.deployed.time_ms - min(e.time_ms for e in placement.decision.estimates)
            for placement in report.placements
        ]
    )
    return report.makespan_ms, float(regret)


def fleet_run(run: Run) -> None:
    hetero = run.build_map(synthetic_fleet(FLEET_SIZE), "deep128")
    pool = run.real_workloads()
    size = run.size
    with run.excluded():
        order = balanced(run.rng, len(pool), size.fleet_batch * size.fleet_cycle)
        batches = [
            [pool[i] for i in order[k * size.fleet_batch : (k + 1) * size.fleet_batch]]
            for k in range(size.fleet_cycle)
        ]
    run.begin_warm()
    hetero.run_fleet(pool, policy=FLEET_POLICY)
    first_lap: list = [None] * size.fleet_cycle  # (makespan_ms, regret_ms)
    latencies_s: list[float] = []
    repeat_mismatch: list[int] = []
    clock = time.perf_counter

    def step(i: int) -> None:
        k = i % size.fleet_cycle
        start = clock()
        report = hetero.run_fleet(batches[k], policy=FLEET_POLICY)
        latencies_s.append(clock() - start)
        if first_lap[k] is None:
            first_lap[k] = _first_run_of_batch(run, k, batches[k], report)
        elif report.makespan_ms != first_lap[k][0]:
            repeat_mismatch.append(k)
        if len(report.outcomes) != len(batches[k]):
            run.errors.append(f"fleet batch {k}: outcome count != inputs")

    cache_before = _cache_counts(hetero)
    seconds = run.seconds * (UNTRACED_SHARE if run.traced else 1.0)
    steps, pace = run.closed_loop(
        step,
        seconds,
        size.fleet_batch,
        min_steps=size.fleet_cycle,
        rss_steps=size.fleet_cycle,
    )
    wall = pace.timed_s
    cache = _cache_delta(hetero, cache_before)
    requests = steps * size.fleet_batch
    run.attempted += requests
    untraced_latency = [value * 1e3 for value in latencies_s]
    if run.traced:
        cache_before = _cache_counts(hetero)
        traced_wall = run.traced_replay(step, steps)
        cache = _cache_delta(hetero, cache_before)
    if repeat_mismatch:
        run.errors.append(
            f"determinism: batches {sorted(set(repeat_mismatch))} changed makespan on a repeat"
        )
    makespan, regret = (float(value) for value in np.mean(first_lap, axis=0))
    run.deterministic.update(makespan_ms=makespan, regret_ms=regret)
    run.diagnostics["batch"] = size.fleet_batch
    run.diagnostics["devices"] = FLEET_SIZE
    if run.traced:
        run.metrics.update(
            layer_metrics(
                run,
                requests=requests,
                cache=cache,
                overhead=traced_wall / wall - 1.0,
            )
        )
        return
    # Each workload's latency is its batch's run_fleet call.
    per_request = np.repeat(untraced_latency, size.fleet_batch)
    windows = windowed(pace, per_request)
    run.metrics.update(
        throughput_per_s=windows["throughput_per_s"],
        latency_p50_ms=windows["p50"],
        latency_p99_ms=windows["p99"],
        makespan_ms=makespan,
        regret_ms=regret,
    )
    run.diagnostics["closed_loop"] = {
        "overall_per_s": requests / wall,
        "latency_ms": percentile_row(per_request),
        "windows": windows,
    }
    run.diagnostics["cache_hit_ratio"] = _hit_ratio(cache)
    run.diagnostics["peak_rss_after_requests"] = size.fleet_cycle * size.fleet_batch


# -- adapt_drift -----------------------------------------------------------------


def _arm(hetero: HeteroMap, start_after: int):
    """Drift-inject the map's backend and attach the online adapter."""
    backend = DriftInjectedBackend(
        hetero.engine.backend, factor=DRIFT_FACTOR, start_after=start_after, kind="gpu"
    )
    hetero.engine.backend = backend
    adapter = hetero.enable_adaptation(ADAPT_CONFIG)
    return backend, adapter


def adapt_drift(run: Run) -> None:
    hetero = run.build_map(DEFAULT_PAIR, "cart", backend_cls=DriftInjectedBackend)
    database = hetero.database
    pool = run.real_workloads()
    length = len(pool) * run.size.adapt_laps
    start_after = length // 3
    with run.excluded():
        streams = [
            [pool[i] for i in balanced(run.rng, len(pool), length)]
            for _ in range(run.size.adapt_streams)
        ]
    armed = _arm(hetero, start_after)
    run.begin_warm()
    # decide() alone does not feed the adapter, and CART bypasses the
    # decision cache, so the warm pass leaves the map as a fresh one.
    for workload in pool:
        hetero.decisions.decide(workload)
    maps = [(hetero, *armed)]

    def fresh_map():
        if maps:
            return maps.pop()
        fresh = HeteroMap(DEFAULT_PAIR, predictor="cart", seed=TRAIN_SEED)
        fresh.train(database=database)
        return (fresh, *_arm(fresh, start_after))

    episodes: list[dict] = []
    traced_windows = run.windows
    pace = Pace()

    def episode(index: int, traced: bool) -> dict:
        stream = streams[index % len(streams)]
        episode_map, backend, adapter = fresh_map()
        decisions = episode_map.decisions
        overhead_ms = decisions.require_trained()
        records = []
        latencies = []
        clock = time.perf_counter
        run.first_timed()
        pace.start()
        start = clock()
        for tag, workload in enumerate(stream):
            if traced:
                run.recorder.current_tag = index * length + tag
            t0 = clock()
            decision = decisions.decide(workload)
            result = backend.execute(workload, decision.spec, decision.config)
            decisions.audit(decision, decision.spec, decision.config, result)
            RunOutcome.from_execution(
                workload, decision.spec, decision.config, result, overhead_ms
            )
            latencies.append(clock() - t0)
            if not traced:
                pace.done(1)  # a reference burst between requests
            records.append((decision, result, backend.executions > start_after))
        end = clock()
        if traced:
            traced_windows.append((start, end))
        else:
            pace.stop()
        regret = executed = 0.0
        for decision, result, drifting in records:
            truth = [
                e.time_ms * (DRIFT_FACTOR if drifting and e.spec.is_gpu else 1.0)
                for e in decision.estimates
            ]
            regret += result.time_ms - min(truth)
            executed += result.time_ms
        summary = adapter.summary()
        return {
            "stream": index % len(streams),
            "wall_s": end - start,
            "latencies_ms": [value * 1e3 for value in latencies],
            "outcome": {
                "regret_ms": regret / len(stream),
                "makespan_ms": executed,
                "retrains": summary["retrains"],
                "promotions": summary["promotions"],
                "discards": summary["discards"],
                "generation": summary["generation"],
            },
        }

    def untraced_episodes(seconds: float) -> float:
        """Episodes with reference bursts between slices of requests;
        returns the timed wall time.  Peak RSS is read once every stream
        has run."""
        if run.recorder is not None:
            run.recorder.uninstall()
        while pace.timed_s < seconds or len(episodes) < len(streams):
            episodes.append(episode(len(episodes), traced=False))
            if len(episodes) == len(streams):
                run.sample_rss()
        return pace.timed_s

    seconds = run.seconds * (UNTRACED_SHARE if run.traced else 1.0)
    wall = untraced_episodes(seconds)
    requests = len(episodes) * length
    run.attempted += requests
    first = {}
    for result in episodes:
        reference = first.setdefault(result["stream"], result["outcome"])
        if result["outcome"] != reference:
            run.errors.append(
                f"determinism: episode stream {result['stream']} repeated differently"
            )
    outcomes = [first[index] for index in sorted(first)]
    for index, outcome in enumerate(outcomes):
        if outcome["promotions"] < 1:
            run.errors.append(f"adapt: stream {index} promoted no candidate")
    makespan = float(np.mean([o["makespan_ms"] for o in outcomes]))
    regret = float(np.mean([o["regret_ms"] for o in outcomes]))
    run.deterministic.update(
        makespan_ms=makespan,
        regret_ms=regret,
        **{
            f"stream{index}.{key}": value
            for index, outcome in enumerate(outcomes)
            for key, value in outcome.items()
        },
    )
    run.diagnostics["episode_requests"] = length
    run.diagnostics["episodes"] = len(episodes)
    run.diagnostics["retrain_share"] = outcomes[0]["retrains"] / length
    if run.traced:
        run.recorder.install(run.targets)
        traced_wall = 0.0
        for index in range(len(episodes)):
            result = episode(index, traced=True)
            traced_wall += result["wall_s"]
            if result["outcome"] != first[result["stream"]]:
                run.errors.append(
                    f"determinism: traced replay of stream {result['stream']} differs"
                )
        run.recorder.uninstall()
        retrains = outcomes[0]["retrains"]
        run.metrics.update(
            layer_metrics(
                run,
                requests=requests,
                cache=None,
                overhead=traced_wall / wall - 1.0,
                online=(retrains, outcomes[0]["promotions"]),
            )
        )
        run.deterministic["online.retrains"] = run.metrics["online.retrains"]
        run.deterministic["online.promotion_ratio"] = run.metrics["online.promotion_ratio"]
        return
    per_request = [v for result in episodes for v in result["latencies_ms"]]
    windows = windowed(pace, per_request)
    run.metrics.update(
        throughput_per_s=windows["throughput_per_s"],
        latency_p50_ms=windows["p50"],
        latency_p99_ms=windows["p99"],
        makespan_ms=makespan,
        regret_ms=regret,
    )
    run.diagnostics["closed_loop"] = {
        "overall_per_s": requests / wall,
        "latency_ms": percentile_row(per_request),
        "windows": windows,
    }
    run.diagnostics["peak_rss_after_requests"] = len(streams) * length


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(
    run: Run,
    *,
    requests: int,
    cache: tuple[int, int, int] | None,
    overhead: float,
    server_phase: dict | None = None,
    online: tuple[int, int] | None = None,
) -> dict[str, float]:
    """Every per-layer metric from the spans and the program's counters.

    ``requests`` is the number of requests the traced timed phases sent;
    counts and per-row times cover the warm pass and those phases,
    per-workload ratios and coverage only the timed phases."""
    recorder = run.recorder
    table = recorder.table()
    setup = summarize(recorder, table, table["start"] < run.warm_start)
    served = summarize(recorder, table, table["start"] >= run.warm_start)
    timed = summarize(recorder, table, in_windows(table, run.windows))
    empty = {
        "calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0,
        "observe_calls": 0, "observe_rows": 0, "observe_total_s": 0.0,
    }

    def get(summary, name):
        return summary.get(name, empty)

    def per_row(summary, name, key="total_s"):
        entry = get(summary, name)
        return entry[key] / entry["rows"] * 1e6 if entry["rows"] else 0.0

    def per_call(summary, name, key="total_s", scale=1e6):
        entry = get(summary, name)
        return entry[key] / entry["calls"] * scale if entry["calls"] else 0.0

    covered, window = coverage(table, run.windows)
    waits = percentile_row(server_phase["queue_waits_ms"]) if server_phase else None
    batches = server_phase["batch_sizes"] if server_phase else []
    fit = get(timed, "predictor.fit")
    shadow = get(timed, "predictor.predict_vector")
    retrains, promotions = online or (0, 0)
    evictions = cache[2] if cache else 0
    late = recorder.lateness_s
    metrics = {
        "deploy.prepare_calls": get(setup, "deploy.prepare_workload")["calls"],
        "deploy.prepare_ms": get(setup, "deploy.prepare_workload")["total_s"] * 1e3,
        "deploy.trace_cache_misses": run.trace_cache_misses,
        "training.train_s": get(setup, "heteromap.train")["total_s"],
        "server.admit_us": per_call(timed, "server.try_submit", "self_s"),
        "server.queue_wait_p50_ms": waits["p50"] if waits else 0.0,
        "server.queue_wait_p99_ms": waits["p99"] if waits else 0.0,
        "server.batch_mean": float(np.mean(batches)) if batches else 0.0,
        "server.flushes": len(batches),
        "server.rejected": server_phase["rejected"] if server_phase else 0,
        "loadgen.late_p99_ms": float(np.percentile(late, 99)) * 1e3 if late else 0.0,
        "serving.cache_hit_ratio": _hit_ratio(cache or (0, 0, 0)),
        "serving.cache_evictions": evictions,
        "encoding.encode_rows": get(served, "decision.encode")["rows"],
        "encoding.encode_us_per_row": per_row(served, "decision.encode"),
        "encoding.decode_us_per_row": per_row(served, "encoding.decode_config_batch"),
        "encoding.decode_fleet_us_per_row": per_row(served, "encoding.decode_config_for"),
        "predictors.predict_rows": get(served, "predictor.predict_batch")["rows"],
        "predictors.predict_us_per_row": per_row(served, "predictor.predict_batch"),
        "decision.choose_us_per_row": per_row(served, "decision.choose_encoded", "self_s"),
        "decision.decide_us_per_row": per_row(served, "decision.decide_batch", "self_s"),
        "accel.simulate_calls_per_workload": get(timed, "accel.simulate")["calls"]
        / max(requests, 1),
        "accel.simulate_us": per_call(timed, "accel.simulate"),
        "scheduler.place_us_per_row": per_row(timed, "scheduler.place"),
        "execution.execute_us": per_call(timed, "backend.execute"),
        "online.observe_us": per_call(timed, "online.observe", "self_s"),
        "online.retrains": retrains,
        "online.retrain_ms": fit["observe_total_s"] / fit["observe_calls"] * 1e3
        if fit["observe_calls"]
        else 0.0,
        "online.promotion_ratio": promotions / retrains if retrains else 0.0,
        "online.shadow_us_per_row": shadow["observe_total_s"] / shadow["observe_rows"] * 1e6
        if shadow["observe_rows"]
        else 0.0,
        "trace.unattributed_share": 1.0 - covered / window if window else 0.0,
        "trace.overhead_share": overhead,
    }
    if list(metrics) != [name for name, _, _ in PER_LAYER]:
        raise RuntimeError("per-layer metrics out of step with metrics.PER_LAYER")
    run.diagnostics["spans"] = len(table["start"])
    return metrics


def blas_name() -> str:
    """The BLAS NumPy was built against, e.g. ``scipy-openblas 0.3.31``."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown BLAS')} {blas.get('version', '')}".strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (tests)")
    parser.add_argument("--spans", type=Path, help="write traced spans here (.npz)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    run = Run(args)
    {
        "serve_hot": serve_hot,
        "serve_miss": serve_miss,
        "fleet_run": fleet_run,
        "adapt_drift": adapt_drift,
    }[args.workload](run)
    if run.trace_cache_misses:
        run.errors.append(f"trace cache: {run.trace_cache_misses} kernel traces missed")
    if run.recorder is not None and args.spans is not None:
        run.recorder.save(args.spans)
    expected = [
        name for name, _, _ in (PER_LAYER if args.trace else END_TO_END + PRINTED_ONLY)
    ]
    missing = [n for n in expected if n not in run.metrics and n not in ("setup_s", "peak_rss_mb")]
    if missing:
        run.errors.append(f"metrics not measured: {missing}")
    payload = {
        "workload": run.name,
        "t_first": run.t_first,
        "excluded_s": run.excluded_s,
        "setup_rates": run.setup_rates,
        "metrics": run.metrics,
        "diagnostics": run.diagnostics,
        "deterministic": run.deterministic,
        "errors": run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "peak_rss_mb": run.rss_mb,
        "numpy": f"{np.__version__} ({blas_name()})",
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

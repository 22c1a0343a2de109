"""``repro-serve`` — drive the async serving front end under load.

Trains a HeteroMap instance, stands up a
:class:`~repro.runtime.server.DecisionServer`, replays a seeded open-loop
arrival trace (Poisson or bursty ON/OFF) over a hot workload pool, and
reports sustained decisions/sec with p50/p99 decision-latency and
queue-wait tails.  Optionally writes a JSONL artifact (summary + latency
histograms) and enforces absolute tail-latency / throughput gates for CI
smoke runs (exit code 3 on violation).

With ``--shards N`` the same trace is served through a
:class:`~repro.runtime.shard.ShardRouter` instead: a fixed pool of N
worker processes, each training its own HeteroMap and serving the rows
whose stable hash falls in its slot (plan mode only).  The artifact then
carries one ``shard`` line per worker with its cache hit rate and
per-device plan counts.

With ``--adapt`` (run mode) the served map closes the online-adaptation
loop: executed outcomes feed per-device correction ratios and a
retraining buffer, Page–Hinkley drift alarms trigger shadow retrains,
and a candidate that beats the incumbent's windowed regret is promoted
live (generation-bumped cache keys make the swap atomic).
``--drift-inject FACTOR@FRACTION`` perturbs one device kind mid-trace to
exercise exactly that loop.  With ``--exploration-rate`` (plan mode) each
flush also probes low-confidence rows with simulate-only costings,
recorded as explored audit records.

Examples::

    repro-serve --rate 120000 --duration 2
    repro-serve --trace onoff --rate 400000 --queue-capacity 1024
    repro-serve --rate 50000 --gate-min-rate 20000 --gate-p99-ms 250 \\
        --output serve_latency.jsonl
    repro-serve --shards 4 --rate 100000 --duration 2
    repro-serve --mode run --adapt --drift-inject 4.0@0.3 --rate 2000
    repro-serve --exploration-rate 0.05 --rate 2000
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.heteromap import HeteroMap
from repro.ioutil import atomic_write_text
from repro.machine.specs import DEFAULT_PAIR
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.runtime.deploy import prepare_workload
from repro.runtime.loadgen import (
    OpenLoopReport,
    onoff_arrivals,
    poisson_arrivals,
    run_open_loop,
)
from repro.core.online import (
    AdaptationConfig,
    DriftInjectedBackend,
    ExplorationConfig,
    OnlineAdapter,
)
from repro.runtime.server import DecisionServer, ServerConfig, low_latency_gc
from repro.runtime.shard import RouterConfig, ShardReport, ShardRouter, ShardSpec

__all__ = ["DEFAULT_POOL", "main"]

#: The hot (benchmark, dataset) mix the trace cycles through — frontier,
#: relaxation, and all-vertex kernels over small/mid datasets, matching
#: the serving bench so numbers are comparable.  At ``--shards 2`` the
#: first four rows hash to slot 0 and ("bfs", "usa-cal") to slot 1, so
#: both workers serve.
DEFAULT_POOL = (
    ("pagerank", "facebook"),
    ("bfs", "facebook"),
    ("sssp_bf", "usa-cal"),
    ("connected_components", "cage14"),
    ("bfs", "usa-cal"),
)


def _histogram_line(kind: str, samples: list[float]) -> dict:
    """One JSONL histogram record over the obs default (ms) bounds."""
    bounds = list(DEFAULT_BUCKETS)
    counts = np.histogram(
        np.asarray(samples, dtype=np.float64), bins=[0.0, *bounds, np.inf]
    )[0]
    return {
        "kind": kind,
        "unit": "ms",
        "bounds": bounds,
        "counts": [int(c) for c in counts],
        "count": len(samples),
        "sum": float(np.sum(samples)) if samples else 0.0,
    }


def _parse_drift_inject(text: str) -> tuple[float, float, str]:
    """Parse ``FACTOR@FRACTION[@KIND]`` (e.g. ``4.0@0.3@multicore``)."""
    parts = text.split("@")
    if len(parts) not in (2, 3):
        raise ValueError(
            "--drift-inject wants FACTOR@FRACTION[@KIND] "
            f"(e.g. 4.0@0.3@multicore), got {text!r}"
        )
    try:
        factor = float(parts[0])
        fraction = float(parts[1])
    except ValueError:
        raise ValueError(
            f"--drift-inject wants numeric FACTOR@FRACTION, got {text!r}"
        ) from None
    kind = parts[2] if len(parts) == 3 else "gpu"
    if factor <= 0.0:
        raise ValueError(f"--drift-inject factor must be > 0, got {factor}")
    if not 0.0 <= fraction < 1.0:
        raise ValueError(
            f"--drift-inject fraction must be in [0, 1), got {fraction}"
        )
    if kind not in ("gpu", "multicore"):
        raise ValueError(
            f"--drift-inject kind must be gpu or multicore, got {kind!r}"
        )
    return factor, fraction, kind


def _write_artifact(
    path: Path,
    report: OpenLoopReport,
    server: "DecisionServer | ShardRouter",
    args,
    shard_report: ShardReport | None = None,
    adapter: OnlineAdapter | None = None,
) -> None:
    lines = [
        {
            "kind": "summary",
            **report.as_dict(),
            "trace": args.trace,
            "offered_rate_per_sec": args.rate,
            "max_batch": args.max_batch,
            "flush_deadline_ms": args.flush_deadline_ms,
            "queue_capacity": args.queue_capacity,
            "tenants": args.tenants,
            "mode": args.mode,
            "predictor": args.predictor,
            "seed": args.seed,
            "shards": args.shards,
        },
        _histogram_line("decision_latency_ms", server.stats.latencies_ms),
        _histogram_line("queue_wait_ms", server.stats.queue_waits_ms),
    ]
    # Per-tenant latency lines: per-tenant p99 is derivable offline
    # without re-running load.
    for tenant in sorted(server.stats.tenant_latencies_ms):
        line = _histogram_line(
            "tenant_latency_ms", server.stats.tenant_latencies_ms[tenant]
        )
        line["tenant"] = tenant
        lines.append(line)
    if shard_report is not None:
        # One line per shard, labeled — the rollup the ISSUE's
        # cross-shard report asks for — plus the fleet-wide totals.
        for snap in shard_report.shards:
            lines.append(
                {
                    "kind": "shard",
                    "shard": snap.shard,
                    "completed": snap.completed,
                    "flushes": snap.flushes,
                    "unique_rows": snap.unique_rows,
                    "mean_batch": snap.mean_batch,
                    "cache_hits": snap.cache_hits,
                    "cache_misses": snap.cache_misses,
                    "cache_hit_rate": snap.cache_hit_rate,
                    "device_counts": snap.device_counts,
                }
            )
        lines.append(
            {
                "kind": "shard_total",
                "shards": len(shard_report.shards),
                "completed": shard_report.completed,
                "flushes": shard_report.flushes,
                "unique_rows": shard_report.unique_rows,
                "cache_hit_rate": shard_report.cache_hit_rate,
                "device_counts": shard_report.device_counts,
            }
        )
    if adapter is not None:
        lines.append({"kind": "adaptation", **adapter.summary()})
    if obs.enabled():
        state = obs.state()
        if state.quality is not None:
            lines.append({"kind": "quality", **state.quality.summary()})
        if state.slos is not None:
            lines.append(
                {
                    "kind": "slo",
                    "slos": state.slos.statuses(),
                    "breached": state.slos.breached(),
                }
            )
    atomic_write_text(
        path, "".join(json.dumps(line) + "\n" for line in lines)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--pair", nargs=2, default=list(DEFAULT_PAIR), metavar=("GPU", "MC"),
        help="accelerator pair to serve decisions for",
    )
    parser.add_argument(
        "--predictor", default="deep128",
        help="predictor to serve (default: deep128)",
    )
    parser.add_argument(
        "--train-samples", type=int, default=48,
        help="offline training samples before serving starts (default: 48)",
    )
    parser.add_argument(
        "--trace", choices=("poisson", "onoff"), default="poisson",
        help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--rate", type=float, default=120_000.0,
        help="offered arrivals/sec — ON-window rate for onoff (default: 120000)",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="trace duration in seconds (default: 2.0)",
    )
    parser.add_argument(
        "--burst-period", type=float, default=0.2,
        help="onoff burst period in seconds (default: 0.2)",
    )
    parser.add_argument(
        "--burst-duty", type=float, default=0.3,
        help="onoff fraction of each period that is ON (default: 0.3)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=512,
        help="dynamic-batching window size (default: 512)",
    )
    parser.add_argument(
        "--flush-deadline-ms", type=float, default=2.0,
        help="max wait before a partial batch flushes (default: 2.0)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=16384,
        help="admission queue bound before reject-with-retry-after "
        "(default: 16384)",
    )
    parser.add_argument(
        "--tenants", type=int, default=1,
        help="round-robin tenant count the trace is spread over (default: 1)",
    )
    parser.add_argument(
        "--mode", choices=("plan", "decide", "run"), default="plan",
        help="what each request resolves to (default: plan)",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve through a fixed pool of N shard worker processes, "
        "each feature row routed to one slot by a stable hash (plan mode "
        "only; default: 0 = single process)",
    )
    parser.add_argument(
        "--adapt", action="store_true",
        help="close the online-adaptation loop (requires --mode run): "
        "observe outcomes, retrain on drift, shadow-score, promote",
    )
    parser.add_argument(
        "--exploration-rate", type=float, default=None, metavar="EPS",
        help="probe low-confidence rows with this epsilon (requires --mode "
        "plan; simulate-only costings recorded in the audit stream; "
        "decisions unchanged)",
    )
    parser.add_argument(
        "--confidence-threshold", type=float, default=0.6, metavar="C",
        help="rows at or above this confidence are never probed "
        "(default: 0.6)",
    )
    parser.add_argument(
        "--drift-inject", default=None, metavar="FACTOR@FRACTION[@KIND]",
        help="scale one device kind's executed times by FACTOR after "
        "FRACTION of the trace (requires --mode run; kind gpu|multicore, "
        "default gpu; e.g. 4.0@0.3@multicore)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for training and the arrival trace (default: 0)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write a JSONL artifact (summary + latency histograms)",
    )
    parser.add_argument(
        "--gate-min-rate", type=float, default=None, metavar="PER_SEC",
        help="exit 3 unless sustained decisions/sec reaches this floor",
    )
    parser.add_argument(
        "--gate-p99-ms", type=float, default=None, metavar="MS",
        help="exit 3 if p99 decision latency exceeds this ceiling",
    )
    parser.add_argument(
        "--obs-port", type=int, default=None, metavar="PORT",
        help="serve live /metrics, /healthz, and /slo on this port "
        "(0 = ephemeral) for the duration of the run",
    )
    parser.add_argument(
        "--obs-linger", type=float, default=0.0, metavar="SEC",
        help="keep the --obs-port endpoint up this long after the run "
        "(CI scrape window; default: 0)",
    )
    parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="install an SLO as name:metric:ceiling[:target[:window]] "
        "(repeatable; adds to the serving defaults)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress informational output (errors still print)",
    )
    args = parser.parse_args(argv)
    if args.quiet:
        obs.set_quiet(True)
    log = obs.get_logger("serve")

    if obs.enabled():
        obs.install_slos(obs.DEFAULT_SERVE_SLOS)
        for text in args.slo or ():
            try:
                obs.install_slos([obs.SLOSpec.parse(text)])
            except ValueError as error:
                parser.error(str(error))
    elif args.slo:
        log.warning("slo_ignored", reason="REPRO_OBS is disabled")

    exposition = None
    if args.obs_port is not None:
        exposition = obs.start_exposition(port=args.obs_port)
        log.info("obs_http", url=exposition.url)

    if args.shards < 0:
        parser.error("--shards must be >= 0")
    if args.shards and args.mode != "plan":
        parser.error("--shards only supports --mode plan")
    if args.adapt and args.mode != "run":
        parser.error("--adapt requires --mode run (outcomes must execute)")
    if args.adapt and args.shards:
        parser.error("--adapt is incompatible with --shards")
    if args.drift_inject is not None and args.mode != "run":
        parser.error("--drift-inject requires --mode run")
    if args.exploration_rate is not None and args.mode != "plan":
        parser.error("--exploration-rate requires --mode plan")
    if args.exploration_rate is not None and args.shards:
        parser.error("--exploration-rate is incompatible with --shards")
    drift_spec: tuple[float, float, str] | None = None
    if args.drift_inject is not None:
        try:
            drift_spec = _parse_drift_inject(args.drift_inject)
        except ValueError as error:
            parser.error(str(error))

    pool = [prepare_workload(b, d) for b, d in DEFAULT_POOL]

    if args.trace == "poisson":
        arrivals = poisson_arrivals(args.rate, args.duration, seed=args.seed)
    else:
        arrivals = onoff_arrivals(
            args.rate,
            duration_s=args.duration,
            period_s=args.burst_period,
            duty=args.burst_duty,
            seed=args.seed,
        )
    shard_report: ShardReport | None = None
    adapter: OnlineAdapter | None = None
    if args.shards:
        # Sharded path: training happens inside every worker (same
        # spec + seed, so decisions stay bit-identical across shards
        # and to the single-process path).
        server: "DecisionServer | ShardRouter" = ShardRouter(
            ShardSpec(
                fleet=(args.pair[0], args.pair[1]),
                predictor=args.predictor,
                train_samples=args.train_samples,
                seed=args.seed,
            ),
            RouterConfig(
                shards=args.shards,
                max_batch=args.max_batch,
                flush_deadline_ms=args.flush_deadline_ms,
                queue_capacity=args.queue_capacity,
            ),
        )
        with obs.span("serve.launch_shards", shards=args.shards):
            server.launch()
    else:
        hetero = HeteroMap(
            (args.pair[0], args.pair[1]),
            predictor=args.predictor,
            seed=args.seed,
        )
        with obs.span("serve.train", predictor=args.predictor):
            hetero.train(num_samples=args.train_samples, seed=args.seed)
        backend = hetero.engine.backend
        if drift_spec is not None:
            factor, fraction, kind = drift_spec
            backend = DriftInjectedBackend(
                backend,
                factor=factor,
                start_after=int(fraction * len(arrivals)),
                kind=kind,
            )
            hetero.engine.backend = backend
            log.info(
                "drift_inject",
                factor=factor,
                start_after=backend.start_after,
                kind=backend.kind,
            )
        if args.exploration_rate is not None:
            hetero.enable_exploration(
                ExplorationConfig(
                    rate=args.exploration_rate,
                    confidence_threshold=args.confidence_threshold,
                )
            )
        if args.adapt:
            adapter = hetero.enable_adaptation(AdaptationConfig())
        server = DecisionServer(
            hetero.decisions,
            ServerConfig(
                max_batch=args.max_batch,
                flush_deadline_ms=args.flush_deadline_ms,
                queue_capacity=args.queue_capacity,
                mode=args.mode,
            ),
            backend=backend,
        )
    tenants = [f"tenant-{i}" for i in range(max(1, args.tenants))]

    async def drive() -> OpenLoopReport:
        async with server:
            for workload in pool:  # warm the decision cache and kept rows
                await server.submit(workload)
            return await run_open_loop(
                server, arrivals, pool, tenants=tenants, label=args.trace
            )

    with obs.span("serve.open_loop", trace=args.trace, offered=len(arrivals)):
        with low_latency_gc():
            report = asyncio.run(drive())
    if args.shards:
        shard_report = server.close()  # idempotent: __aexit__ already closed
        for text in shard_report.lines():
            log.info("shard", detail=text)

    log.info(
        "open_loop",
        trace=args.trace,
        offered=report.offered,
        admitted=report.admitted,
        rejected=report.rejected,
        completed=report.completed,
        dropped=report.dropped,
        sustained_per_s=round(report.sustained_per_sec),
        p50_ms=round(report.latency_p50_ms, 2),
        p99_ms=round(report.latency_p99_ms, 2),
        queue_wait_p99_ms=round(report.queue_wait_p99_ms, 2),
        mean_batch=round(report.mean_batch, 1),
        flushes=report.flushes,
    )
    if adapter is not None:
        summary = adapter.summary()
        log.info(
            "adaptation",
            observations=summary["observations"],
            drift_alarms=summary["drift_alarms"],
            retrains=summary["retrains"],
            shadow_evaluations=summary["shadow_evaluations"],
            promotions=summary["promotions"],
            discards=summary["discards"],
            generation=summary["generation"],
        )
    if args.output:
        path = Path(args.output)
        _write_artifact(path, report, server, args, shard_report, adapter)
        log.info("artifact", path=str(path))

    failed = []
    if args.gate_min_rate is not None and (
        report.sustained_per_sec < args.gate_min_rate
    ):
        failed.append(
            f"sustained {report.sustained_per_sec:.0f}/s "
            f"< floor {args.gate_min_rate:.0f}/s"
        )
    if args.gate_p99_ms is not None and report.latency_p99_ms > args.gate_p99_ms:
        failed.append(
            f"p99 {report.latency_p99_ms:.2f}ms > ceiling {args.gate_p99_ms:.2f}ms"
        )
    if report.dropped:
        failed.append(f"{report.dropped} admitted requests dropped")
    if failed:
        log.error("gate_failed", reasons="; ".join(failed))
    if exposition is not None:
        if args.obs_linger > 0:
            time.sleep(args.obs_linger)
        exposition.close()
    return 3 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

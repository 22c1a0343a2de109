"""Shard worker: one process, one HeteroMap, one decision cache.

:func:`shard_worker_main` is the target of every
:class:`~repro.runtime.shard.router.ShardRouter` worker process.  It
builds and trains its own ``HeteroMap`` from a :class:`ShardSpec`
(training is a pure function of the spec, so every worker — and the
unsharded reference path — derives bit-identical predictors from the
same seed), then serves flush blocks from its request queue:

* ``("block", block_id, rows, inverse)`` — ``rows`` is the block's
  *deduped* ``(u, 17)`` feature matrix and ``inverse`` maps each of the
  block's requests to its row.  The worker answers with one plan per
  unique row; the router fans results back out, so IPC cost scales with
  unique keys, not with requests;
* ``("stop",)`` — drain accounting and exit; the final ``("stopped",
  name, stats)`` message carries the shard's serving counters, decision
  cache stats, and per-device plan counts for the cross-shard rollup.

Workers re-initialize observability for their own process
(:func:`repro.obs.reinit_child`), so a ``REPRO_OBS=jsonl`` run produces
one labeled event stream per shard that ``repro-obs-report`` can merge.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass

import numpy as np

__all__ = ["ShardSpec", "shard_worker_main"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild the serving stack.

    The spec is deliberately *names and seeds only* — no live objects —
    so workers are start-method agnostic (fork or spawn) and two
    processes given the same spec converge on bit-identical predictors.
    """

    #: Accelerator registry names, in fleet order (the pair or an
    #: N-device fleet).
    fleet: tuple[str, ...]
    predictor: str = "deep128"
    train_samples: int = 48
    seed: int = 0
    metric: str = "time"


def _drain_stats(hetero, state: dict) -> dict:
    """The shard's final accounting, JSON-able for the rollup (one key
    per :class:`~repro.runtime.shard.router.ShardSnapshot` counter)."""
    stats = hetero.decisions.cache.stats
    completed, flushes = state["completed"], state["flushes"]
    return {
        "pid": os.getpid(),
        "completed": completed,
        "flushes": flushes,
        "unique_rows": state["unique_rows"],
        "mean_batch": completed / flushes if flushes else 0.0,
        "device_counts": dict(state["device_counts"]),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
    }


def shard_worker_main(
    name: str,
    spec: ShardSpec,
    request_queue,
    reply_queue,
    obs_env: str | None,
) -> None:
    """Process entry point: train, signal ready, serve blocks until stop.

    Any exception is reported as an ``("error", name, traceback)`` reply
    rather than dying silently — the router raises it on the caller's
    side so a crashed shard can never stall admitted requests forever.
    """
    from repro import obs

    if obs_env is not None:
        os.environ[obs.ENV_VAR] = obs_env
    obs.reinit_child()
    try:
        from repro.core.heteromap import HeteroMap

        with obs.span(
            "shard.train", shard=name, predictor=spec.predictor
        ):
            hetero = HeteroMap(
                spec.fleet,
                predictor=spec.predictor,
                metric=spec.metric,
                seed=spec.seed,
            )
            hetero.train(num_samples=spec.train_samples, seed=spec.seed)
        decisions = hetero.decisions
        reply_queue.put(("ready", name))
        state = {"completed": 0, "flushes": 0, "unique_rows": 0, "device_counts": {}}
        traced = obs.enabled()
        while True:
            message = request_queue.get()
            kind = message[0]
            if kind == "stop":
                reply_queue.put(("stopped", name, _drain_stats(hetero, state)))
                break
            if kind != "block":  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown shard message {kind!r}")
            _, block_id, rows, inverse = message
            with obs.span(
                "shard.flush",
                shard=name,
                batch=int(len(inverse)),
                unique=int(len(rows)),
            ):
                entries = decisions.choose_encoded(rows)
            # One (device name, config) plan per *unique* row; the
            # router fans them back out through ``inverse``.
            plans = [(entry.spec.name, entry.config) for entry in entries]
            reply_queue.put(("result", name, block_id, plans, inverse))
            state["completed"] += len(inverse)
            state["flushes"] += 1
            state["unique_rows"] += len(rows)
            counts = np.bincount(inverse, minlength=len(plans))
            device_counts = state["device_counts"]
            for (device, _config), count in zip(plans, counts):
                device_counts[device] = device_counts.get(device, 0) + int(count)
            if traced:
                obs.counter("shard.completed", int(len(inverse)), shard=name)
                obs.histogram(
                    "shard.block_occupancy", int(len(inverse)), shard=name
                )
    except BaseException:
        reply_queue.put(("error", name, traceback.format_exc()))
    finally:
        obs.flush()

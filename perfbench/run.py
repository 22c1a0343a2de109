"""Repository benchmark: one command, four workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload serve_hot --seed 3 --seconds 15 --trace 0

Each workload runs in a fresh process (``workloads.py``) under a pinned
environment: observability off, the decision cache at its default size,
the committed kernel-trace cache, one BLAS thread.  This process measures
what only the outside can: ``setup_s`` from process start to the first
timed request (input generation and reference bursts excluded, scaled to
the reference host by the bursts the workload ran during set-up), the
trace cache left untouched, the reference rate before and after the
workload, and the determinism ledger (``.perfbench/ledger.json``): values
that must repeat exactly for a seed, compared with every earlier run of
the same sources.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics (spans saved under ``.perfbench/``).  The
last line of standard output is one JSON object; any failed check makes
``correct`` false and the exit code 1.  Without the program sources the
command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Ledger, snapshot, snapshot_changes  # noqa: E402
from hostspeed import REFERENCE_RATE, reference_rate  # noqa: E402
from metrics import END_TO_END, PER_LAYER, PRINTED_ONLY, UNITS, WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 10.0
#: A workload that has not finished after this long has hung.
CHILD_TIMEOUT_S = 170.0
REFERENCE_LOOP_S = 0.5


def source_digest(root: Path) -> str:
    """SHA-256 over the program and benchmark sources."""
    digest = hashlib.sha256()
    for directory in (root / "src", HERE):
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit(root: Path) -> str:
    """The checked-out commit, or ``none`` outside a git checkout (the
    source digest then identifies the code).  Only ``root/.git`` is read."""
    try:
        completed = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return completed.stdout.strip()


def pinned_env(root: Path) -> dict[str, str]:
    """The environment every workload process runs under."""
    env = dict(os.environ)
    env.pop("REPRO_DECISION_CACHE", None)
    env.update(
        REPRO_OBS="0",
        REPRO_CACHE_DIR=str(root / ".repro_cache"),
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


PINNED = (
    "REPRO_OBS",
    "REPRO_DECISION_CACHE",
    "REPRO_CACHE_DIR",
    "PYTHONHASHSEED",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def run_workload(root: Path, args, name: str, env: dict) -> dict:
    """One workload in a fresh process; returns its report."""
    trace_cache = root / ".repro_cache"
    before = snapshot(trace_cache)
    rate_before = reference_rate(REFERENCE_LOOP_S)
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = root / ".perfbench" / f"spans-{name}-seed{args.seed}.npz"
        command += ["--spans", str(spans)]
    if args.tiny:
        command.append("--tiny")
    spawned = time.monotonic()
    child = subprocess.run(
        command,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    rate_after = reference_rate(REFERENCE_LOOP_S)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with {child.returncode}")
    report = json.loads(lines[-1])
    errors = report["errors"]
    changed = snapshot_changes(before, snapshot(trace_cache))
    if changed:
        errors.append(f"trace cache written: {changed[:5]}")
    metrics = report["metrics"]
    if not args.trace:
        # Host speed over set-up: the rate just before the process started
        # (its imports run next) and the bursts it ran during set-up.
        speed = np.mean([rate_before, *report["setup_rates"]]) / REFERENCE_RATE
        raw_setup = report["t_first"] - spawned - report["excluded_s"]
        metrics["setup_s"] = raw_setup * speed
        metrics["peak_rss_mb"] = report["peak_rss_mb"]
        report["diagnostics"]["setup"] = {"raw_s": raw_setup, "host_speed": speed}
    ledger_key = "|".join(
        (name, f"seed={args.seed}", f"tiny={int(args.tiny)}", source_digest(root))
    )
    drifted = Ledger(root / ".perfbench" / "ledger.json").check(
        ledger_key, report["deterministic"]
    )
    if drifted:
        errors.append(f"determinism: {drifted} differ from an earlier run of this seed")
    report["reference_rate_per_s"] = {"before": rate_before, "after": rate_after}
    return report


def print_report(report: dict, trace: int) -> None:
    name = report["workload"]
    names = [n for n, _, _ in (PER_LAYER if trace else END_TO_END + PRINTED_ONLY)]
    print(f"== {name} ({'traced, per layer' if trace else 'end to end'})")
    for metric in names:
        value = report["metrics"].get(metric)
        print(f"  {metric:36s} {value!s:>24} {UNITS[metric]}")
    failed_share = report["failed"] / max(report["attempted"], 1)
    print(
        f"  {'failed_share':36s} {failed_share!s:>24} fraction"
        f" ({report['failed']} of {report['attempted']})"
    )
    rates = report["reference_rate_per_s"]
    print(
        f"  host: numpy {report['numpy']}; reference rate {rates['before']:.1f}/s"
        f" before, {rates['after']:.1f}/s after"
    )
    print(f"  diagnostics: {json.dumps(report['diagnostics'], sort_keys=True)}")
    print(f"  deterministic: {json.dumps(report['deterministic'], sort_keys=True)}")
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd().resolve()
    if not (root / "src" / "repro").is_dir() or not (root / ".repro_cache").is_dir():
        print(
            "perfbench: run from the repository root (needs src/repro and .repro_cache)",
            file=sys.stderr,
        )
        return 2
    env = pinned_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("== environment")
    for key in PINNED:
        print(f"  {key}={env.get(key, '(unset)')}")
    print(
        f"  host: cpus={sorted(os.sched_getaffinity(0))} python={platform.python_version()}"
        f" commit={commit(root)} sources={source_digest(root)}"
    )
    reports = []
    for name in names:
        try:
            report = run_workload(root, args, name, env)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 2
        reports.append(report)
        print_report(report, args.trace)
    correct = all(not report["errors"] for report in reports)
    listed = [n for n, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    if len(reports) == 1:
        metrics = {metric: reports[0]["metrics"][metric] for metric in listed}
    else:
        metrics = {
            f"{report['workload']}/{metric}": report["metrics"][metric]
            for report in reports
            for metric in listed
        }
    result = {
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": {
            metric: {"value": value, "unit": UNITS[metric.split("/")[-1]]}
            for metric, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

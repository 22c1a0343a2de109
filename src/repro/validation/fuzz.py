"""Seeded fuzz driver: ``python -m repro.validation.fuzz``.

Round-robins the fuzz components — ``kernels`` (invariant registry on
randomized generator graphs), ``oracle`` (lattice pass vs the
per-phase cost model), ``fleet`` (``simulate``, and the lattice pass on
a square-root rounding input, vs the per-phase model + fleet identity
properties),
``calibration`` (confidence-report validity,
coverage monotonicity, exploration-off bit-identity), and ``cart``
(screened CART split search vs the per-candidate loop) — under a
wall-clock budget and per-component case cap, with two tiers:

* ``--tier quick``: the CI tier, bounded to finish well under a minute.
* ``--tier deep``: the opt-in soak tier (``make fuzz-deep``).

Determinism contract: the master seed comes from ``--seed`` or the
``REPRO_FUZZ_SEED`` environment variable; the first case of every
component uses the master seed *itself*, so any failure line —

    REPRO_FUZZ_SEED=<seed> python -m repro.validation.fuzz \\
        --component <c> --cases 1

— replays the exact failing case.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable, Sequence

from repro import obs
from repro.errors import ValidationError
from repro.validation.calibration import run_calibration_case
from repro.validation.cart import run_cart_case
from repro.validation.fleet import run_fleet_case
from repro.validation.invariants import run_kernel_case
from repro.validation.oracle import run_oracle_case
from repro.validation.seeds import (
    FuzzFailure,
    iterate_case_seeds,
    master_seed_from_env,
)

__all__ = ["COMPONENTS", "TIERS", "run_case", "fuzz", "main"]

COMPONENTS: dict[str, Callable[[int], str]] = {
    "kernels": run_kernel_case,
    "oracle": run_oracle_case,
    "fleet": run_fleet_case,
    "calibration": run_calibration_case,
    "cart": run_cart_case,
}

# tier -> (wall-clock budget seconds, max cases per component)
TIERS: dict[str, tuple[float, int]] = {
    "quick": (25.0, 75),
    "deep": (600.0, 5_000),
}


def run_case(component: str, seed: int) -> str:
    """Run one case of ``component``; failures carry the replay one-liner.

    Raises:
        FuzzFailure: wrapping any invariant/oracle violation (and any
            unexpected crash) with the case seed and replay command.
        ValidationError: for unknown component names.
    """
    try:
        runner = COMPONENTS[component]
    except KeyError:
        raise ValidationError(
            f"unknown fuzz component {component!r}; "
            f"known: {sorted(COMPONENTS)}"
        ) from None
    try:
        return runner(seed)
    except FuzzFailure:
        raise
    except Exception as exc:  # noqa: BLE001 - every crash must be replayable
        raise FuzzFailure(component, seed, f"{type(exc).__name__}: {exc}") from exc


def fuzz(
    components: Sequence[str],
    master_seed: int,
    budget_s: float,
    max_cases: int,
    *,
    verbose: bool = False,
    log: Callable[[str], None] | None = None,
) -> dict[str, int]:
    """Round-robin the components until budget or case caps are hit.

    Args:
        log: optional override for verbose per-case lines; defaults to
            the ``repro.obs`` structured logger.

    Returns:
        Cases completed per component.

    Raises:
        FuzzFailure: on the first failing case.
    """
    logger = obs.get_logger("fuzz")
    seed_streams = {
        component: iterate_case_seeds(master_seed, component)
        for component in components
    }
    completed = dict.fromkeys(components, 0)
    deadline = time.monotonic() + budget_s
    active = list(components)
    with obs.span("fuzz.loop", seed=master_seed, budget_s=budget_s):
        while active and time.monotonic() < deadline:
            for component in list(active):
                if completed[component] >= max_cases:
                    active.remove(component)
                    continue
                if time.monotonic() >= deadline:
                    break
                case_seed = next(seed_streams[component])
                description = run_case(component, case_seed)
                completed[component] += 1
                obs.counter("fuzz.cases", component=component)
                if verbose:
                    if log is not None:
                        log(f"  [{component}] seed={case_seed}: {description}")
                    else:
                        logger.info(
                            "case",
                            component=component,
                            seed=case_seed,
                            description=description,
                        )
    return completed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation.fuzz",
        description=(
            "Seeded property-based fuzzing of the kernel invariants and "
            "the differential cost-model oracles."
        ),
    )
    parser.add_argument(
        "--tier",
        choices=sorted(TIERS),
        default="quick",
        help="budget preset: quick (CI, <60s) or deep (soak)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget override",
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=None,
        metavar="N",
        help="max cases per component override",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: REPRO_FUZZ_SEED env var, else fixed)",
    )
    parser.add_argument(
        "--component",
        choices=["all", *sorted(COMPONENTS)],
        default="all",
        help="restrict to one fuzz component",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every case description"
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational output (failures still print)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.quiet:
        obs.set_quiet(True)
    logger = obs.get_logger("fuzz")
    budget_s, max_cases = TIERS[args.tier]
    if args.budget is not None:
        budget_s = args.budget
    if args.cases is not None:
        max_cases = args.cases
    try:
        master_seed = (
            master_seed_from_env() if args.seed is None else int(args.seed)
        )
    except ValidationError as exc:
        logger.error("bad_seed", error=str(exc))
        return 2
    components = (
        sorted(COMPONENTS) if args.component == "all" else [args.component]
    )

    logger.info(
        "start",
        tier=args.tier,
        seed=master_seed,
        budget_s=budget_s,
        max_cases_per_component=max_cases,
        components=",".join(components),
    )
    started = time.monotonic()
    try:
        completed = fuzz(
            components,
            master_seed,
            budget_s,
            max_cases,
            verbose=args.verbose,
        )
    except FuzzFailure as failure:
        logger.error("violation", detail=str(failure))
        return 1
    elapsed = time.monotonic() - started
    logger.info(
        "ok",
        elapsed_s=round(elapsed, 1),
        no_violations=True,
        **{name: count for name, count in completed.items()},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

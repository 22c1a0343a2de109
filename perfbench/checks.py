"""Output, determinism and trace-cache checks (pure functions + a ledger)."""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "Ledger",
    "determinism_mismatches",
    "plan_mismatches",
    "snapshot",
    "snapshot_changes",
]


def plan_mismatches(served: list, expected: list) -> list[int]:
    """Indices where a served ``(spec, config)`` plan differs from the
    reference plan, compared exactly (dataclass equality on floats)."""
    if len(served) != len(expected):
        return list(range(max(len(served), len(expected))))
    return [
        index
        for index, ((spec, config), (want_spec, want_config)) in enumerate(
            zip(served, expected)
        )
        if spec != want_spec or config != want_config
    ]


def determinism_mismatches(reference: dict, observed: dict) -> list[str]:
    """Names whose values differ between two runs of the same seed.

    Only names present in both are compared; every value must be equal
    exactly, since these are simulated times and program counts, not
    timings.
    """
    return sorted(
        name
        for name in reference.keys() & observed.keys()
        if reference[name] != observed[name]
    )


class Ledger:
    """Deterministic values of earlier runs, keyed by workload and seed.

    The key also holds a digest of the program and benchmark sources, so
    a code change starts a fresh entry instead of reporting a mismatch.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {}

    def check(self, key: str, values: dict) -> list[str]:
        """Compare ``values`` with the entry for ``key``, then merge them
        in; returns the names that differ from an earlier run."""
        entries = self._load()
        previous = entries.get(key, {})
        mismatches = determinism_mismatches(previous, values)
        if not mismatches:
            entries[key] = {**previous, **values}
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text(json.dumps(entries, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self.path)
        return mismatches


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    """Name → (size, mtime_ns) of every file in ``directory``."""
    return {
        entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
        for entry in os.scandir(directory)
        if entry.is_file()
    }


def snapshot_changes(before: dict, after: dict) -> list[str]:
    """Files added, removed or rewritten between two snapshots."""
    return sorted(
        name
        for name in before.keys() | after.keys()
        if before.get(name) != after.get(name)
    )

"""Placement properties of the shard pool.

The router sends a feature row to slot ``stable_hash(row bytes) % N`` of
its fixed worker pool.  That is only sound if placement is
**deterministic across processes** (admission and any replay must agree
on who owns a key, whatever the process hash seed) and **balanced** (no
slot hoards the keyspace).
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

import numpy as np

from repro.runtime.shard import stable_hash


def synthetic_keys(count: int, *, seed: int = 7) -> list[bytes]:
    """Feature-row-shaped keys on the 0.1 discretization grid."""
    rng = np.random.default_rng(seed)
    rows = np.round(rng.random((count, 17)), 1)
    return [row.tobytes() for row in rows]


class TestStableHash:
    def test_known_value(self):
        # Pinned: any change here silently reshuffles every deployment.
        key = np.zeros(17).tobytes()
        assert stable_hash(key) == int.from_bytes(
            hashlib.sha256(key).digest()[:8], "big"
        )

    def test_distinct_inputs_distinct_positions(self):
        keys = synthetic_keys(1000)
        assert len({stable_hash(k) for k in keys}) == len(set(keys))


class TestDeterminism:
    def test_same_placement_in_subprocess(self):
        """A key's slot must not depend on the process hash seed."""
        keys = synthetic_keys(50)
        parent = [stable_hash(k) % 3 for k in keys]
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import numpy as np\n"
            "from repro.runtime.shard import stable_hash\n"
            "rng = np.random.default_rng(7)\n"
            "rows = np.round(rng.random((50, 17)), 1)\n"
            "print(','.join(str(stable_hash(r.tobytes()) % 3) for r in rows))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, "src"],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": "12345"},
            cwd=None,
            check=True,
        )
        assert [int(slot) for slot in out.stdout.strip().split(",")] == parent
        assert len(set(parent)) == 3


class TestBalance:
    def test_share_within_bound_at_10k_keys(self):
        keys = synthetic_keys(10_000)
        for n in (2, 4, 8):
            counts = np.bincount([stable_hash(k) % n for k in keys], minlength=n)
            assert counts.sum() == len(keys)
            expected = len(keys) / n
            for slot, count in enumerate(counts):
                assert count >= expected / 1.6, (n, slot, counts)
                assert count <= expected * 1.6, (n, slot, counts)

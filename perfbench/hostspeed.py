"""Host speed, measured between slices of timed work.

On a shared host the speed of the cores moves, by up to 1.5x within
seconds on the 2-CPU reference host, and every timing moves with it.  A
fixed reference unit (pure-Python arithmetic, dict reads and inserts and
small NumPy calls, the mix the program itself runs) is timed in short
bursts between slices of a workload, so each slice's speed is read
against the host's speed at that moment.  Timed metrics are reported
scaled to a host that runs ``REFERENCE_RATE`` units per second: a faster
program still reads faster, since the reference unit calls none of its
code.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["BURST_S", "REFERENCE_RATE", "SLICE_S", "Pace", "reference_rate"]

#: Reference units per second of the host every timing is scaled to.
REFERENCE_RATE = 8_000.0

#: Timed work between two reference bursts, and the length of a burst.
SLICE_S = 0.1
BURST_S = 0.025

_SMALL = np.arange(64, dtype=np.float64)

#: A dict larger than the CPU caches (~15 MB), read at fixed random keys.
#: The workloads' models, pools and caches do not fit in cache either,
#: and a neighbour contending for cache and memory slows them more than
#: it slows arithmetic alone; with these reads the unit slows with them.
_LARGE = {key: key for key in range(1 << 17)}
_LARGE_KEYS = np.random.default_rng(0).integers(0, 1 << 17, 400).tolist()


def reference_unit() -> float:
    """One unit of fixed work that calls nothing in the program."""
    total = 0
    for value in range(1000):
        total += value * value
    for key in _LARGE_KEYS:
        total += _LARGE[key]
    table = {}
    for key in range(200):
        table[key] = key
    array = _SMALL
    for _ in range(20):
        array = np.sqrt(array * array + 1.0)
    return total + len(table) + float(array[0])


def reference_rate(seconds: float = BURST_S) -> float:
    """Reference units per second over a burst of at least ``seconds``."""
    clock = time.perf_counter
    units = 0
    start = clock()
    while True:
        reference_unit()
        units += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return units / elapsed


class Pace:
    """Cuts timed work into slices and runs a reference burst after each.

    Call :meth:`start` before the first step, :meth:`done` after every
    step and :meth:`stop` at the end of a phase.  The bursts run between
    steps, never inside one, and their time is left out of the timed
    clock.  Each closed slice is kept as (requests, seconds, reference
    units per second of the burst that followed it).
    """

    def __init__(self) -> None:
        self.slices: list[tuple[int, float, float]] = []
        #: Seconds of timed work so far, bursts left out.
        self.timed_s = 0.0
        self._start = 0.0
        self._requests = 0

    def start(self) -> None:
        self._requests = 0
        self._start = time.perf_counter()

    def done(self, requests: int) -> float:
        """Count a finished step of ``requests``; returns its end on the
        timed clock.  Runs a burst when the slice is full."""
        elapsed = time.perf_counter() - self._start
        self._requests += requests
        end = self.timed_s + elapsed
        if elapsed >= SLICE_S:
            self._close(elapsed)
            self.start()
        return end

    def stop(self) -> None:
        """Close the open slice, if it holds any work."""
        if self._requests:
            self._close(time.perf_counter() - self._start)
        self._requests = 0

    def _close(self, elapsed: float) -> None:
        self.timed_s += elapsed
        self.slices.append((self._requests, elapsed, reference_rate()))

    def windows(self, window_s: float) -> list[tuple[int, float, float]]:
        """The slices merged into runs of ``window_s`` of timed work, in
        order: (requests, seconds, mean reference rate).  A last run
        shorter than half a window joins the one before it."""
        if not self.slices:
            return []
        requests, seconds, rates = (np.asarray(c) for c in zip(*self.slices))
        starts = np.cumsum(seconds) - seconds
        group = np.unique(starts // window_s, return_inverse=True)[1]
        last = group[-1]
        if last and seconds[group == last].sum() < window_s / 2:
            group[group == last] = last - 1
        count = np.bincount(group)
        return list(
            zip(
                np.bincount(group, requests).astype(int).tolist(),
                np.bincount(group, seconds).tolist(),
                (np.bincount(group, rates) / count).tolist(),
            )
        )

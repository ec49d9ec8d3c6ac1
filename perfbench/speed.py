"""The machine's speed during a run, from a fixed reference kernel.

The CPU a run gets is shared: its speed drifts by up to about 1.5x in
phases from seconds to minutes long, so two runs of the same code can
differ by more than any useful bound.  The benchmark therefore times a
fixed pure-Python kernel, which no change to geoposet can touch, at a
steady rate while the ops run, and reports times scaled to the speed at
which the kernel takes ``REF_KERNEL_S``:

    scaled time = measured time * REF_KERNEL_S / trimmed mean kernel time

README.md (Steadiness) shows that the kernel's time tracks the ops'.

``Sampler`` interrupts the run every ``INTERVAL_S`` with ``SIGALRM`` and
runs the kernel in the handler, so the samples are spread evenly in time,
within long ops too.  The handler's time is recorded and subtracted from
the op it interrupted.  Each sample times the second of two kernel runs
back to back, so it does not depend on what the interrupted code left in
the CPU's caches.
"""

from __future__ import annotations

import itertools
import math
import signal
import statistics
import time

# Kernel time at the reference speed: about the trimmed mean on the 2-vCPU
# Xeon the benchmark was written on.
REF_KERNEL_S = 0.0035
INTERVAL_S = 0.15
TRIM = 0.1

_WORDS = list(itertools.permutations(range(5)))


def kernel() -> int:
    """Fixed work of the kind geoposet does: inversion sets as tuples and
    bit masks, grouped in a dict under a sorted signature."""
    groups: dict = {}
    for w in _WORDS * 3:
        n = len(w)
        inv = tuple((w[a], w[b]) for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
        adj = [0] * n
        for a, b in inv:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        key = (len(inv), tuple(sorted(bin(m).count("1") for m in adj)), frozenset(adj))
        groups.setdefault(key, []).append(w)
    return len(groups)


def time_kernel() -> float:
    """Time of one kernel run, after an untimed one to warm the caches."""
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Kernel samples every INTERVAL_S of wall time while started.

    ``intervals`` holds each handler run as (start, end) on the
    ``perf_counter`` clock, ``samples`` the kernel time of each.
    """

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []
        self.samples: list[float] = []
        self._previous = None

    def _handle(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(time_kernel())
        self.intervals.append((start, time.perf_counter()))

    def start(self) -> None:
        """Take a sample now, so there is at least one, and then one every
        INTERVAL_S until stopped."""
        self._handle(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paused(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Handler time that fell inside [start, end]."""
        return sum(b - a for a, b in self.intervals if a >= start and b <= end)


def scale(samples: list[float]) -> float:
    """REF_KERNEL_S over the mean kernel time: multiply a time measured
    while the samples were taken by it to get the time at the reference speed.

    The slowest TRIM of the samples are left out of the mean: a sample
    that the host paused is many times its usual length, and would weigh
    far more in the mean than the pause weighs in the ops around it.
    """
    kept = sorted(samples)[: max(1, math.ceil(len(samples) * (1 - TRIM)))]
    return REF_KERNEL_S / statistics.fmean(kept)

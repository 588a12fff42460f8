"""Host speed, measured by a fixed reference kernel, for scaling timings.

On a shared host the same Python code runs 20-40% slower for seconds to
minutes at a time, when other tenants load the machine.  CPU time shows the
same swings as wall time, so neither can be compared between runs.  While a
pass runs, a background thread of the same process therefore times a fixed
kernel every INTERVAL_S, and each timed call is reported as

    (its wall time - kernel time inside it) * REFERENCE_S / (mean kernel time around it)

that is, the seconds the call would take on a host where the kernel takes
REFERENCE_S.  "Around it" is the call's interval widened by MARGIN_S on each
side, so a short call still gets several samples and a long one gets samples
from all along its run.  The kernel holds the GIL while it runs, so a kernel
run never overlaps the main thread's work and its time can be subtracted.

The kernel is pure Python of the kind f5gb runs (sparse polynomial arithmetic
mod p over packed integer monomial keys, with a heap and a dict).  It is part
of the benchmark, not of the library, so a change to f5gb never changes it.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush

# seconds the kernel takes on a quiet core of the host the baseline in
# README.md was measured on; it only sets the scale of the reported values
REFERENCE_S = 0.0007
INTERVAL_S = 0.025
MARGIN_S = 0.1
_P = 32003
_SHIFT = 8  # bits per exponent in a packed monomial key


def _poly(rng: random.Random, nterms: int) -> list:
    terms = {}
    while len(terms) < nterms:
        key = 0
        for _ in range(6):
            key = (key << _SHIFT) | rng.randrange(4)
        terms[key] = rng.randrange(1, _P)
    return sorted(terms.items(), reverse=True)


_RNG = random.Random(20240917)
_A = _poly(_RNG, 32)
_B = _poly(_RNG, 32)


def kernel() -> int:
    """Multiply two fixed sparse polynomials mod p, visiting terms in order.

    It creates only two garbage-collected containers (the dict stays
    untracked, holding ints only), so it does not move the collector's
    schedule in the thread it measures.
    """
    work: dict = {}
    heap: list = []
    for ka, ca in _A:
        for kb, cb in _B:
            k = ka + kb
            prev = work.get(k)
            if prev is None:
                work[k] = ca * cb % _P
                heappush(heap, -k)
            else:
                work[k] = (prev + ca * cb) % _P
    check = 0
    while heap:
        k = -heappop(heap)
        check = (check * 31 + k * work.pop(k)) % _P
    return check


def pin_to_one_cpu() -> None:
    """Keep this process (and the kernel thread) on one CPU, where the OS allows it."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    except (AttributeError, OSError):
        pass


class HostSpeed:
    """Context manager: a thread that times the kernel every INTERVAL_S."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _sample(self):
        clock = time.perf_counter
        while not self._stop.wait(INTERVAL_S):
            t0 = clock()
            kernel()
            t1 = clock()
            self.starts.append(t0)
            self.ends.append(t1)

    def settle(self, t: float) -> None:
        """Wait until the samples around an interval ending at t are taken."""
        while self._thread.is_alive() and (not self.ends or self.ends[-1] < t + MARGIN_S):
            time.sleep(INTERVAL_S)

    def scale(self, t0: float, t1: float) -> float:
        """Scaled seconds of main-thread work from t0 to t1 (call settle(t1) first)."""
        starts, ends = self.starts, self.ends
        inside = range(bisect_left(starts, t0), bisect_right(ends, t1))
        stolen = sum(ends[i] - starts[i] for i in inside)
        around = range(bisect_left(starts, t0 - MARGIN_S), bisect_right(ends, t1 + MARGIN_S))
        if not around:
            raise RuntimeError("no host-speed samples around a timed interval")
        speed = statistics.fmean(ends[i] - starts[i] for i in around)
        return (t1 - t0 - stolen) * REFERENCE_S / speed

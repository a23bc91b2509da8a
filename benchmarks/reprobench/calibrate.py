"""Host-speed sampling for the benchmark's timings.

Shared hosts change speed under us.  On the reference host (a shared
2-vCPU Intel Xeon VM) a fixed pure-Python loop flipped between two
speeds about 1.75x apart, often several times a second, for minutes while
other tenants were busy; process CPU time tracked wall time, so CPU time
does not help.

:class:`Sampler` therefore times a short fixed kernel — a heap-driven
event loop over slotted objects and dicts, the same kind of interpreter
work the simulator does, but code no change to the simulator touches —
every INTERVAL_S on a background thread while the measured work runs on
the same CPU.  A measured time scaled by ``REFERENCE_S / mean kernel
time`` over its span is the time the work would have taken at the
reference speed.  The kernel holds the GIL for about a millisecond per
sample, so sampling adds about 2% to the measured work at any speed.

The kernel creates no object the garbage collector tracks, so it never
starts a collection: a change that gives the simulator more live
objects or more garbage makes its collections slower, and none of that
cost may land in a kernel sample, where it would be divided out of the
measured time instead of showing in it.
"""

from __future__ import annotations

import heapq
import os
import statistics
import threading
import time
from typing import List, Tuple

#: Median sampled kernel time on the reference host (Python 3.11.7) in
#: its fast state, with the simulator running beside it (its slow state
#: read about 1.5 ms).  A constant, so scaled times compare across runs
#: and commits on one host.
REFERENCE_S = 0.00086

#: Seconds between two kernel samples.
INTERVAL_S = 0.05


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


#: The kernel's state, built once.  A heap entry packs (time, item
#: index) into one int; ints are not tracked by the collector.
_ITEMS = [_Item(i % 64, i) for i in range(256)]
_START = sorted((i * 7919 % 1000) << 16 | i for i in range(256))
_HEAP: List[int] = []
_TOTALS = {key: 0 for key in range(64)}


def _kernel(events: int = 1500) -> None:
    heap, items, totals = _HEAP, _ITEMS, _TOTALS
    heap[:] = _START
    for index in range(len(items)):
        items[index].value = index
    for key in range(len(totals)):
        totals[key] = 0
    for _ in range(events):
        packed = heapq.heappop(heap)
        when, index = packed >> 16, packed & 0xFFFF
        item = items[index]
        totals[item.key] += item.value
        item.value = (item.value * 31 + when) % 1009
        heapq.heappush(heap, (when + item.value % 50 + 1) << 16 | index)


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the
    reference speed."""
    return seconds * REFERENCE_S / kernel_s


def pin_to_one_cpu() -> None:
    """Keep this process, sampler thread included, on one CPU, so the
    samples measure the CPU the work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Background thread timing the kernel every INTERVAL_S.

    An inactive sampler starts no thread and reports REFERENCE_S, so
    times scaled by it stay as measured.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: List[Tuple[float, float]] = []  # (end, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
            self.samples.append((end, end - start))
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "Sampler":
        if self.active:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            self._stop.set()
            self._thread.join()

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time over the samples taken in [start, end] (the
        mean, because the work pays for every slow moment), or of the
        sample nearest to that span when it held none."""
        samples = list(self.samples)
        if not samples:
            return REFERENCE_S
        inside = [seconds for when, seconds in samples
                  if start <= when <= end]
        if inside:
            return statistics.fmean(inside)
        return min(samples, key=lambda s: abs(s[0] - end))[1]

"""A deterministic discrete-event simulation kernel.

Simulation logic is written as generator functions ("processes") that
``yield`` how long to sleep: a non-negative ``int`` number of
**nanoseconds**.  Integer time keeps arithmetic exact and makes hardware
latencies (a cache miss is ~80 ns, a QPI crossing ~60 ns) natural to
express.

Determinism guarantees
----------------------
Every queue entry is a process resumption.  Resumptions due at the same
timestamp fire in schedule order (a strictly increasing sequence number
breaks heap ties), so two runs with the same seed produce identical
traces.

Fast-path machinery
-------------------
A heap entry is ``(time, sequence, drive)``, where ``drive`` is a
process's :meth:`Process._drive`; :meth:`Environment.step` pops the
smallest one and calls it.  A process queues its own resumption when it
starts and each time it sleeps; a finished process queues nothing.

The dominant schedule case is ``delay=0`` (process starts, zero-length
sleeps).  Those entries skip the heap for a FIFO **same-timestamp lane**
of ``(sequence, drive)``; ``step()`` interleaves the lane with the heap
by the same global ``(time, sequence)`` order the heap alone would
produce, so resumption order is bit-identical.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Generator, List, Optional

from repro.sim.errors import ScheduleInPastError, SimulationError

#: Accuracy modes governing the adaptive fast paths.
#:
#: * ``"exact"``    — today's per-packet, bit-identical behaviour; seeded
#:   runs reproduce the determinism goldens byte-for-byte.
#: * ``"adaptive"`` — steady-state packet-train coalescing in the
#:   workloads plus early termination in the experiment runners: far
#:   fewer events, but not exact; README lists the quick-fidelity
#:   cells it puts more than 2% off.
ACCURACY_MODES = ("exact", "adaptive")


#: Process-wide accuracy override, set by the CLI's --accuracy flag.
_accuracy_override: Optional[str] = None


def configure_accuracy(mode: Optional[str]) -> None:
    """Set (or clear, with None) the process-wide accuracy override."""
    global _accuracy_override
    if mode is not None and mode not in ACCURACY_MODES:
        raise ValueError(
            f"accuracy must be one of {ACCURACY_MODES}, got {mode!r}")
    _accuracy_override = mode


def resolve_accuracy(fallback: str) -> str:
    """The accuracy tier of a run that names none: the
    :func:`configure_accuracy` override, else ``REPRO_ACCURACY``, else
    the caller's ``fallback``."""
    if _accuracy_override is not None:
        return _accuracy_override
    mode = os.environ.get("REPRO_ACCURACY")
    if not mode:
        return fallback
    if mode not in ACCURACY_MODES:
        raise ValueError(f"REPRO_ACCURACY must be one of {ACCURACY_MODES}, "
                         f"got {mode!r}")
    return mode


class Process:
    """Drives a generator that yields how long to sleep.

    Each yield is a non-negative ``int``: the process sleeps that many
    ns and then resumes with ``None``.  The
    :class:`~repro.os_model.thread.SimThread` helpers return such delays.
    A negative ``int`` raises :class:`ScheduleInPastError`; anything else
    (``bool`` and ``float`` included) is a :class:`SimulationError`.
    ``is_alive`` turns false when the generator returns.
    """

    __slots__ = ("env", "_generator", "name", "is_alive")

    def __init__(self, env: "Environment",
                 generator: Generator[int, None, object],
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, "
                            f"got {type(generator).__name__}")
        self.env = env
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.is_alive = True
        # Start the generator at env.now through a zero-length lane entry.
        env._sequence += 1
        env._lane.append((env._sequence, self._drive))

    def _drive(self) -> None:
        """Advance the generator by one yield; the only code that does."""
        try:
            delay = self._generator.send(None)
        except StopIteration:
            self.is_alive = False
            return
        if delay.__class__ is not int:
            raise SimulationError(
                f"process {self.name!r} yielded {delay!r}, "
                f"which is not an int delay")
        if delay < 0:
            raise ScheduleInPastError(
                f"process {self.name!r} slept {delay} ns")
        env = self.env
        sequence = env._sequence = env._sequence + 1
        if delay:
            heappush(env._queue, (env._now + delay, sequence, self._drive))
        else:
            env._lane.append((sequence, self._drive))


class Environment:
    """The simulation clock and the queue of process resumptions."""

    def __init__(self, accuracy: Optional[str] = None):
        if accuracy is None:
            accuracy = resolve_accuracy("exact")
        if accuracy not in ACCURACY_MODES:
            raise ValueError(f"accuracy must be one of {ACCURACY_MODES}, "
                             f"got {accuracy!r}")
        #: Accuracy mode every model layer consults (see ACCURACY_MODES).
        self.accuracy = accuracy
        self._now = 0
        self._queue: List[tuple] = []
        #: Same-timestamp fast lane: (sequence, drive) entries scheduled
        #: with delay 0, drained in global (time, sequence) order with the
        #: heap.
        self._lane: deque = deque()
        self._sequence = 0
        #: Total resumptions dispatched (the determinism tests pin it).
        self.events_processed = 0
        #: The ``train_coalescing`` component: when cleared,
        #: :func:`repro.workloads.train.make_governor` hands out
        #: governors that never coalesce (inert in exact mode, where
        #: trains never form anyway).
        self.train_coalescing = True

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def adaptive(self) -> bool:
        """True when the fast paths may engage (train coalescing, early
        termination)."""
        return self.accuracy != "exact"

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def step(self) -> None:
        """Dispatch exactly one entry (the globally (time, seq)-smallest)."""
        lane = self._lane
        if lane:
            queue = self._queue
            # A heap entry at the current timestamp fires before lane
            # entries scheduled after it (strict sequence order).
            if queue and queue[0][0] <= self._now and queue[0][1] < lane[0][0]:
                _when, _seq, drive = heappop(queue)
            else:
                _seq, drive = lane.popleft()
        elif self._queue:
            self._now, _seq, drive = heappop(self._queue)
        else:
            raise SimulationError("step() on an empty event queue")
        self.events_processed += 1
        drive()

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last entry fires earlier, so rate computations over a
        fixed window are exact.
        """
        lane, queue = self._lane, self._queue
        if until is not None:
            until = int(until)
            if until < self._now:
                raise ScheduleInPastError(
                    f"run(until={until}) but now={self._now}")
            while lane or queue:
                if not lane and queue[0][0] > until:
                    break
                self.step()
            self._now = max(self._now, until)
            return
        while lane or queue:
            self.step()

    def __repr__(self) -> str:
        return (f"<Environment now={self._now} "
                f"queued={len(self._queue) + len(self._lane)}>")

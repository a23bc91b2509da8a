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

The queue
---------
One heap of ``(time, sequence, process)`` entries.
:meth:`Environment.step` resumes the process at the top of the heap,
the one place a generator advances, and its next sleep replaces that
entry in place: everything the resumption scheduled (a process start)
is due at the current time with a larger sequence number, so the
running entry is still the smallest.  A process queues its entry when
it starts (at the current time); a finished process loses it.

So every sequence number is a start or a sleep, and every step either
sleeps (a new sequence number, the queue as long) or finishes (the
queue one shorter): the steps taken are the sequence number less the
entries still queued, which is how
:attr:`Environment.events_processed` counts them without a counter.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush, heapreplace
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
    """A generator that yields how long to sleep, and its liveness.

    Each yield is a non-negative ``int``: the process sleeps that many
    ns and then resumes with ``None``.  The
    :class:`~repro.os_model.thread.SimThread` helpers return such delays.
    A negative ``int`` raises :class:`ScheduleInPastError`; anything else
    (``bool`` and ``float`` included) is a :class:`SimulationError`.
    :meth:`Environment.step` resumes it through the generator's bound
    ``send``, held in ``_send``; ``is_alive`` turns false when the
    generator returns or raises.
    """

    __slots__ = ("_send", "name", "is_alive")

    def __init__(self, env: "Environment",
                 generator: Generator[int, None, object],
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, "
                            f"got {type(generator).__name__}")
        self._send = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        self.is_alive = True
        # Start the generator at env.now, after everything already due.
        env._sequence += 1
        heappush(env._queue, (env._now, env._sequence, self))


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
        self._sequence = 0
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
    def events_processed(self) -> int:
        """Total resumptions dispatched (the determinism tests pin it):
        the sequence number less the entries still queued (see the
        module docstring), read between steps."""
        return self._sequence - len(self._queue)

    @property
    def adaptive(self) -> bool:
        """True when the fast paths may engage (train coalescing, early
        termination)."""
        return self.accuracy != "exact"

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def step(self) -> None:
        """Resume the (time, seq)-smallest process once.

        Its next sleep replaces its own entry (one ``heapreplace``); a
        process that returns, raises or yields a bad delay loses the
        entry first.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty event queue")
        now, _seq, process = queue[0]
        self._now = now
        try:
            delay = process._send(None)
        except StopIteration:
            heappop(queue)
            process.is_alive = False
            return
        except BaseException:
            heappop(queue)
            process.is_alive = False
            raise
        if delay.__class__ is not int or delay < 0:
            heappop(queue)
            if delay.__class__ is not int:
                raise SimulationError(
                    f"process {process.name!r} yielded {delay!r}, "
                    f"which is not an int delay")
            raise ScheduleInPastError(
                f"process {process.name!r} slept {delay} ns")
        sequence = self._sequence = self._sequence + 1
        heapreplace(queue, (now + delay, sequence, process))

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last entry fires earlier, so rate computations over a
        fixed window are exact.
        """
        queue = self._queue
        step = self.step
        if until is not None:
            until = int(until)
            if until < self._now:
                raise ScheduleInPastError(
                    f"run(until={until}) but now={self._now}")
            while queue and queue[0][0] <= until:
                step()
            self._now = max(self._now, until)
            return
        while queue:
            step()

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"

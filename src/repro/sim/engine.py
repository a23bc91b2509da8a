"""A deterministic discrete-event simulation kernel.

The kernel is intentionally simpy-like: simulation logic is written as
generator functions ("processes") that ``yield`` events.  Time is an integer
number of **nanoseconds**, which keeps arithmetic exact and makes hardware
latencies (a cache miss is ~80 ns, a QPI crossing ~60 ns) natural to express.

Determinism guarantees
----------------------
Events scheduled for the same timestamp fire in schedule order (a strictly
increasing sequence number breaks heap ties), so two runs with the same seed
produce identical traces.

Fast-path machinery
-------------------
The queue holds plain entries, not events: a heap entry is
``(time, sequence, fn, arg)`` and :meth:`Environment.step` pops the
smallest one and calls ``fn(arg)``.  Two kinds of entry exist:

* **Events** — ``fn`` is :meth:`Event._run_callbacks` and ``arg`` the
  event, which hands it to everything waiting on it.
* **Process resumptions** — ``fn`` is a process's :meth:`Process._drive`
  and ``arg`` the sequence number of the entry, its token.  A process
  queues its own resumption when it starts, when it sleeps (yields an
  ``int`` number of ns; no :class:`Event` is created) and when it yields
  an event that has already fired.  An interrupt makes the token stale,
  so a resumption queued before it fires as a no-op.

The dominant schedule case is ``delay=0`` (event hand-offs, resource
grants, process starts).  Those entries skip the heap for a FIFO
**same-timestamp lane** of ``(sequence, fn, arg)``; ``step()``
interleaves the lane with the heap by the same global ``(time,
sequence)`` order the heap alone would produce, so event order is
bit-identical.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.errors import (
    AlreadyTriggeredError,
    Interrupt,
    ScheduleInPastError,
    SimulationError,
)

#: Marker object distinguishing "not yet set" from a legitimate ``None`` value.
_PENDING = object()

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


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, at which point it is scheduled and its
    callbacks run when the simulator reaches it in the event queue.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("event value read before it was triggered")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        if self.triggered:
            raise AlreadyTriggeredError(f"{self!r} already triggered")
        self._value = value
        self.env.schedule(self, delay)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise AlreadyTriggeredError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self.env.schedule(self)
        return self

    def _run_callbacks(self) -> None:
        """Dispatch: the ``fn`` of this event's queue entry."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout delay {delay}")
        super().__init__(env)
        self._value = value
        self.env.schedule(self, delay)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        self._remaining = 0
        for event in self._children:
            if event.processed:
                continue
            self._remaining += 1
            event.callbacks.append(self._on_child)
        if self._remaining == 0:
            self.succeed([e.value for e in self._children])

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is that event."""

    __slots__ = ("_children",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        done = next((e for e in self._children if e.processed), None)
        if done is not None:
            self.succeed(done)
            return
        for event in self._children:
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        # First child wins: detach from the losers so long-lived events do
        # not accumulate dead callbacks (memory + dispatch cost in long
        # runs) and so late firings skip the triggered-check entirely.
        for child in self._children:
            if child is not event and child.callbacks is not None:
                try:
                    child.callbacks.remove(self._on_child)
                except ValueError:
                    pass
        if not event.ok:
            self.fail(event._exception)
            return
        self.succeed(event)


class Process(Event):
    """Drives a generator; the process event fires when the generator ends.

    The generator may yield:

    * any :class:`Event` — the process resumes with the event's value (or
      the event's exception is thrown into the generator);
    * a non-negative ``int`` — the process sleeps that many ns and then
      resumes with ``None``.  The sleep is a queue entry of the process's
      own, not an event, so it is scheduled when the generator yields;
      the :class:`~repro.os_model.thread.SimThread` helpers return such
      delays.  A negative ``int`` raises :class:`ScheduleInPastError`.

    Anything else (``bool`` and ``float`` included) is a
    :class:`SimulationError`.
    """

    __slots__ = ("_generator", "_waiting_on", "_token", "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, "
                            f"got {type(generator).__name__}")
        self._generator = generator
        #: The event whose outcome the next resumption delivers.
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Start the generator at env.now through a zero-length lane entry.
        token = self._token = env._sequence = env._sequence + 1
        env._lane.append((token, self._drive, token))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is the process's only resumption: it detaches the
        process from the event it waits on and makes any resumption it
        has already queued stale.  A later interrupt before this one is
        delivered replaces it.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            # Detach from whatever we were waiting on (even if it has
            # already triggered but not yet been processed — e.g. a
            # Timeout, whose value is assigned at construction).
            try:
                target.callbacks.remove(self._drive)
            except ValueError:
                pass
        self._token = None
        interruption = self._waiting_on = Event(self.env)
        interruption.callbacks.append(self._drive)
        interruption.fail(Interrupt(cause))

    def _drive(self, cause: Any) -> None:
        """Advance the generator by one yield; the only code that does.

        ``cause`` is the event the process waited on through callbacks,
        or the token of a resumption the process queued itself.
        """
        if cause.__class__ is int:
            if cause != self._token:
                return  # queued before an interrupt
            event = self._waiting_on
        else:
            event = cause
        self._waiting_on = None
        env = self.env
        try:
            if event is None:
                target = self._generator.send(None)
            elif event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(
                    None if event._value is _PENDING else event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # The process chose not to handle its interruption: treat the
            # process as failed so waiters see the error.
            self._exception = SimulationError(
                f"process {self.name!r} killed by unhandled interrupt")
            env.schedule(self)
            return
        if target.__class__ is int:
            if target < 0:
                raise ScheduleInPastError(
                    f"process {self.name!r} slept {target} ns")
            delay = target
        elif not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, "
                f"which is neither an Event nor an int delay")
        elif target.callbacks is not None:
            self._waiting_on = target
            target.callbacks.append(self._drive)
            return
        else:
            # Already fired: resume with its outcome on the lane (hot on
            # every ARFS cache hit).
            self._waiting_on = target
            delay = 0
        token = self._token = env._sequence = env._sequence + 1
        if delay:
            heappush(env._queue, (env._now + delay, token, self._drive, token))
        else:
            env._lane.append((token, self._drive, token))


_run_callbacks = Event._run_callbacks


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: int = 0,
                 accuracy: Optional[str] = None):
        if accuracy is None:
            accuracy = resolve_accuracy("exact")
        if accuracy not in ACCURACY_MODES:
            raise ValueError(f"accuracy must be one of {ACCURACY_MODES}, "
                             f"got {accuracy!r}")
        #: Accuracy mode every model layer consults (see ACCURACY_MODES).
        self.accuracy = accuracy
        self._now = int(initial_time)
        self._queue: List[tuple] = []
        #: Same-timestamp fast lane: (sequence, fn, arg) entries scheduled
        #: with delay 0, drained in global (time, sequence) order with the
        #: heap.
        self._lane: deque = deque()
        self._sequence = 0
        #: Total events dispatched (the determinism tests pin it).
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

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, int(delay), value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling and execution -----------------------------------------

    def schedule(self, event: Event, delay: int = 0) -> None:
        if event._scheduled:
            return
        if delay == 0:
            # Same-timestamp fast lane: no heap traffic for the dominant
            # delay-0 case; sequence numbers keep global order intact.
            event._scheduled = True
            self._sequence += 1
            self._lane.append((self._sequence, _run_callbacks, event))
            return
        if delay < 0:
            raise ScheduleInPastError(
                f"cannot schedule {delay} ns in the past")
        event._scheduled = True
        self._sequence += 1
        heappush(self._queue, (self._now + int(delay), self._sequence,
                               _run_callbacks, event))

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if the queue is empty."""
        if self._lane:
            return self._now
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly one entry (the globally (time, seq)-smallest)."""
        lane = self._lane
        if lane:
            queue = self._queue
            # A heap entry at the current timestamp fires before lane
            # entries scheduled after it (strict sequence order).
            if queue and queue[0][0] <= self._now and queue[0][1] < lane[0][0]:
                _when, _seq, fn, arg = heappop(queue)
            else:
                _seq, fn, arg = lane.popleft()
        elif self._queue:
            self._now, _seq, fn, arg = heappop(self._queue)
        else:
            raise SimulationError("step() on an empty event queue")
        self.events_processed += 1
        fn(arg)

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so rate computations over a
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

    def run_process(self, process: Process) -> Any:
        """Run until ``process`` finishes and return its value."""
        while not process.triggered:
            if not (self._lane or self._queue):
                raise SimulationError(
                    f"deadlock: process {process.name!r} cannot finish "
                    f"(event queue empty)")
            self.step()
        # Drain same-timestamp bookkeeping so .value is settled.
        return process.value

    def __repr__(self) -> str:
        return (f"<Environment now={self._now} "
                f"queued={len(self._queue) + len(self._lane)}>")

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
Two optimisations keep the kernel cheap without changing any trace:

* **Same-timestamp fast lane** — the dominant schedule case is ``delay=0``
  (event hand-offs, resource grants, process resumes).  Those events go to
  a FIFO deque instead of the heap; :meth:`Environment.step` interleaves
  the lane with the heap by the same global ``(time, sequence)`` order the
  heap alone would have produced, so event order is bit-identical.
* **Event free-list** — one-shot events the kernel itself creates and fully
  controls (process bootstrap/resume hand-offs, interrupts, and the
  :meth:`Environment.pooled_timeout` variant used by the thread helpers)
  are recycled after their callbacks run instead of being reallocated.
  Pooled events MUST NOT be retained by callers past their firing; the
  public :meth:`Environment.timeout` is not pooled and stays safe to hold.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
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
#:   workloads plus early termination in the experiment runners; metrics
#:   stay within ~1% of exact while processing far fewer events.
#: * ``"fluid"``    — flow-level fluid modeling: while a flow's steady
#:   token (plus the environment-wide :attr:`Environment.rate_epoch`) is
#:   unchanged, whole steady intervals are advanced analytically with
#:   per-burst byte/packet/interrupt/doorbell counts derived in closed
#:   form; execution de-coalesces back to event granularity at every
#:   rate-change boundary.  Metrics stay within ~2% of exact.
ACCURACY_MODES = ("exact", "adaptive", "fluid")


def default_accuracy() -> str:
    """The process-wide accuracy default (``REPRO_ACCURACY`` env var)."""
    mode = os.environ.get("REPRO_ACCURACY") or "exact"
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

    __slots__ = ("env", "callbacks", "_value", "_exception", "_scheduled",
                 "_pool_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self._pool_ok = False

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

    The generator may yield any :class:`Event`; the process resumes with the
    event's value (or the event's exception is thrown into the generator).
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, "
                            f"got {type(generator).__name__}")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at time env.now via an
        # immediately-scheduled (pooled) initialisation event.
        init = env._pooled_event()
        init.callbacks.append(self._resume)
        init._value = None
        env.schedule(init)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            # Detach from whatever we were waiting on (even if it has
            # already triggered but not yet been processed — e.g. a
            # Timeout, whose value is assigned at construction).
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        interruption = self.env._pooled_event()
        interruption.callbacks.append(self._resume)
        interruption._exception = Interrupt(cause)
        self.env.schedule(interruption)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self.env._active_process = self
        try:
            if event._exception is not None:
                next_event = self._generator.throw(event._exception)
            else:
                next_event = self._generator.send(
                    None if event._value is _PENDING else event._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except Interrupt:
            # The process chose not to handle its interruption: treat the
            # process as failed so waiters see the error.
            self.env._active_process = None
            self._exception = SimulationError(
                f"process {self.name!r} killed by unhandled interrupt")
            self.env.schedule(self)
            return
        self.env._active_process = None
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_event!r}, "
                f"which is not an Event")
        if next_event.callbacks is None:
            # Already fired (processed): resume on the next same-tick
            # scheduler pass through a pooled hand-off event on the fast
            # lane (hot on every ARFS cache hit; no heap traffic, no
            # allocation).
            bounce = self.env._pooled_event()
            bounce.callbacks.append(self._resume)
            if next_event._exception is not None:
                bounce._exception = next_event._exception
            else:
                bounce._value = next_event._value
            self.env.schedule(bounce)
        else:
            self._waiting_on = next_event
            next_event.callbacks.append(self._resume)


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: int = 0,
                 accuracy: Optional[str] = None):
        if accuracy is None:
            accuracy = default_accuracy()
        if accuracy not in ACCURACY_MODES:
            raise ValueError(f"accuracy must be one of {ACCURACY_MODES}, "
                             f"got {accuracy!r}")
        #: Accuracy mode every model layer consults (see ACCURACY_MODES).
        self.accuracy = accuracy
        self._now = int(initial_time)
        self._queue: List[tuple] = []
        #: Same-timestamp fast lane: (sequence, event) pairs scheduled with
        #: delay 0, drained in global (time, sequence) order with the heap.
        self._lane: deque = deque()
        self._sequence = 0
        self._active_process: Optional[Process] = None
        #: Free-list of recycled one-shot events (see module docstring).
        self._pool: List[Event] = []
        #: Total events dispatched; the perf harness divides by wall time.
        self.events_processed = 0
        #: Bumped by every BandwidthServer.set_rate (fault throttles, link
        #: retraining).  The fluid tier folds this into its steady tokens
        #: so any rate change invalidates every in-flight steady interval.
        self.rate_epoch = 0
        #: The ``train_coalescing`` component: when cleared,
        #: :func:`repro.workloads.train.make_governor` hands out
        #: governors that never coalesce (inert in exact mode, where
        #: trains never form anyway).
        self.train_coalescing = True
        #: Wall span (ns) of the steady interval currently being charged,
        #: or 0 outside one.  Set by FluidRegion.interval(); bandwidth
        #: servers and rate estimators treat charges landing while it is
        #: nonzero as spread uniformly over the span instead of stacked
        #: at the current instant — the closed-form rate-share view that
        #: keeps one flow's coalesced interval from presenting phantom
        #: backlog or utilisation spikes to concurrent flows.
        self.fluid_span_ns = 0
        #: Identity of the flow charging the current steady interval
        #: (rate estimators key reservations by it, so a flow's next
        #: interval replaces its previous reservation instead of
        #: stacking with a stale tail of it).
        self.fluid_flow_id = 0

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def adaptive(self) -> bool:
        """True when the bounded-error fast paths may engage (any
        non-exact tier: train coalescing, early termination)."""
        return self.accuracy != "exact"

    @property
    def fluid(self) -> bool:
        """True for the fluid tier: closed-form steady-interval service."""
        return self.accuracy == "fluid"

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

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

    # -- pooled fast-path events -------------------------------------------

    def _pooled_event(self) -> Event:
        """A recycled pending event; recycled again after it fires.

        Only for one-shot events whose last reader is a callback: the
        object is reset and reused as soon as its callbacks have run.
        """
        pool = self._pool
        if pool:
            return pool.pop()
        event = Event(self)
        event._pool_ok = True
        return event

    def pooled_timeout(self, delay: int, value: Any = None) -> Event:
        """A :class:`Timeout`-equivalent drawn from the free list.

        The caller must yield/consume it immediately and never touch it
        after it fires (the thread helpers' ``yield thread.overlap(...)``
        pattern); use :meth:`timeout` for an event that is retained.
        ``delay`` is an integer number of ns (the thread helpers pass
        ``int(...)``): a timer goes straight onto the heap.
        """
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout delay {delay}")
        pool = self._pool
        event = pool.pop() if pool else self._pooled_event()
        event._value = value
        if delay:
            # schedule() inlined for the timer case (one per STREAM
            # chunk); a pooled event is never already scheduled.
            event._scheduled = True
            self._sequence += 1
            heapq.heappush(self._queue, (self._now + delay,
                                         self._sequence, event))
        else:
            self.schedule(event)
        return event

    # -- scheduling and execution -----------------------------------------

    def schedule(self, event: Event, delay: int = 0) -> None:
        if event._scheduled:
            return
        if delay == 0:
            # Same-timestamp fast lane: no heap traffic for the dominant
            # delay-0 case; sequence numbers keep global order intact.
            event._scheduled = True
            self._sequence += 1
            self._lane.append((self._sequence, event))
            return
        if delay < 0:
            raise ScheduleInPastError(
                f"cannot schedule {delay} ns in the past")
        event._scheduled = True
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + int(delay),
                                     self._sequence, event))

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if the queue is empty."""
        if self._lane:
            return self._now
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly one event (the globally (time, seq)-smallest)."""
        lane = self._lane
        event: Optional[Event] = None
        if lane:
            queue = self._queue
            if queue:
                head = queue[0]
                # A heap event at the current timestamp fires before lane
                # events scheduled after it (strict sequence order).
                if head[0] <= self._now and head[1] < lane[0][0]:
                    heapq.heappop(queue)
                    event = head[2]
            if event is None:
                event = lane.popleft()[1]
        else:
            if not self._queue:
                raise SimulationError("step() on an empty event queue")
            when, _seq, event = heapq.heappop(self._queue)
            self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            # Inlined single-callback dispatch (the overwhelmingly common
            # case: one process waiting on one event).
            callbacks[0](event)
        else:
            for callback in callbacks:
                callback(event)
        if event._pool_ok:
            event.callbacks = []
            event._value = _PENDING
            event._exception = None
            event._scheduled = False
            self._pool.append(event)

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so rate computations over a
        fixed window are exact.
        """
        if until is not None:
            until = int(until)
            if until < self._now:
                raise ScheduleInPastError(
                    f"run(until={until}) but now={self._now}")
            while self._lane or self._queue:
                if not self._lane and self._queue[0][0] > until:
                    break
                self.step()
            self._now = max(self._now, until)
            return
        while self._lane or self._queue:
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

"""Unit tests for the discrete-event kernel."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    ScheduleInPastError,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def body():
        yield 100
        seen.append(env.now)
        yield 50
        seen.append(env.now)

    proc = env.process(body())
    env.run()
    assert seen == [100, 150]
    assert env.now == 150
    assert not proc.is_alive


def test_zero_delay_timeout_runs_same_time():
    env = Environment()
    seen = []

    def body():
        yield 0
        seen.append(env.now)

    env.process(body())
    env.run()
    assert seen == [0]


def test_negative_timeout_rejected():
    """A process that sleeps a negative time is rejected before anything
    is queued."""
    env = Environment()

    def body():
        yield -1

    env.process(body())
    with pytest.raises(ScheduleInPastError):
        env.run()
    assert env._sequence == 1   # the start, and no sleep after it
    assert not env._queue


def test_pooled_timeout_fires_in_schedule_order():
    """Sleeps of any length share one sequence counter: a delay-0 sleep
    fires ahead of every later timestamp, and sleeps that end at the
    same timestamp fire in the order they were scheduled."""
    env = Environment()
    order = []

    def body(tag, delay):
        yield delay
        order.append((tag, env.now))

    env.process(body("a", 10))
    env.process(body("b", 5))
    env.process(body("c", 10))
    env.process(body("zero", 0))
    env.run()
    assert order == [("zero", 0), ("b", 5), ("a", 10), ("c", 10)]


def test_events_fire_in_schedule_order_at_same_time():
    env = Environment()
    order = []

    def make(tag):
        def body():
            yield 10
            order.append(tag)
        return body

    for tag in ("a", "b", "c"):
        env.process(make(tag)())
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_spawn_and_zero_sleep_follow_schedule_order():
    """A process due at t=10 that spawns another and sleeps 0 ns runs
    again only after everything scheduled before it at t=10: first the
    process already due (B), then the new process's start, then itself."""
    env = Environment()
    order = []

    def child():
        order.append(("C start", env.now))
        yield 5
        order.append(("C", env.now))

    def a():
        yield 10
        order.append(("A", env.now))
        env.process(child())
        yield 0
        order.append(("A again", env.now))

    def b():
        yield 10
        order.append(("B", env.now))

    env.process(a())
    env.process(b())
    env.run()
    assert order == [("A", 10), ("B", 10), ("C start", 10),
                     ("A again", 10), ("C", 15)]


def test_finished_process_queues_nothing():
    """Each start and each sleep is one queue entry and one dispatch; a
    process that returns queues nothing more."""
    env = Environment()

    def body():
        yield 10
        yield 0

    proc = env.process(body())
    env.run()
    assert env.events_processed == env._sequence == 3
    assert not proc.is_alive


def test_run_until_advances_clock_exactly():
    env = Environment()

    def body():
        yield 100

    env.process(body())
    env.run(until=500)
    assert env.now == 500


def test_run_until_does_not_run_future_events():
    env = Environment()
    seen = []

    def body():
        yield 100
        seen.append("early")
        yield 1000
        seen.append("late")

    env.process(body())
    env.run(until=200)
    assert seen == ["early"]
    env.run(until=2000)
    assert seen == ["early", "late"]


def test_run_until_in_past_rejected():
    env = Environment()
    env.run(until=100)
    with pytest.raises(ScheduleInPastError):
        env.run(until=50)


@pytest.mark.parametrize("value", [1.5, True, None])
def test_non_event_yield_is_error(value):
    """Only an int delay may be yielded (a bool is not an int delay).
    The failing process loses its entry; the others keep theirs."""
    env = Environment()

    def bad():
        yield value

    def good():
        yield 5

    env.process(bad())
    proc = env.process(good())
    with pytest.raises(SimulationError):
        env.run()
    assert [entry[2] for entry in env._queue] == [proc]
    env.run()
    assert env.now == 5 and not proc.is_alive


def test_raising_process_loses_its_entry():
    env = Environment()

    def body():
        yield 1
        raise RuntimeError("boom")

    proc = env.process(body())
    with pytest.raises(RuntimeError):
        env.run()
    assert not env._queue
    assert not proc.is_alive


def test_step_on_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


class _ReferenceKernel:
    """The dispatch order the kernel must keep, as a plain
    ``heappop``/``heappush`` scheduler: every resumption pops its entry
    and its next sleep pushes a new one."""

    def __init__(self):
        self.now = 0
        self.queue = []
        self.sequence = 0
        self.events_processed = 0

    def process(self, generator, name):
        self.sequence += 1
        heappush(self.queue, (self.now, self.sequence, generator))

    def run(self):
        while self.queue:
            self.now, _seq, generator = heappop(self.queue)
            self.events_processed += 1
            try:
                delay = generator.send(None)
            except StopIteration:
                continue
            self.sequence += 1
            heappush(self.queue, (self.now + delay, self.sequence,
                                  generator))


def _scripted(spawn, now, log, name, script):
    """A process that logs each resumption as ``(now, name)`` and runs
    ``script``: ``("sleep", ns)`` yields, ``("spawn", child_script)``
    starts a child in the middle of the resumption."""
    log.append((now(), name))
    for index, (kind, arg) in enumerate(script):
        if kind == "spawn":
            child = f"{name}.{index}"
            spawn(_scripted(spawn, now, log, child, arg), child)
        else:
            yield arg
            log.append((now(), name))


_sleep = st.tuples(st.just("sleep"), st.integers(min_value=0, max_value=8))
_scripts = st.recursive(
    st.lists(_sleep, max_size=4),
    lambda children: st.lists(
        st.one_of(_sleep, st.tuples(st.just("spawn"), children)),
        max_size=5),
    max_leaves=24)


@given(st.lists(_scripts, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_dispatch_order_matches_a_heappop_heappush_scheduler(scripts):
    """Resuming in place (one heapreplace per sleep) dispatches exactly
    what popping every entry and pushing the next one does: the same
    ``(now, name)`` sequence, dispatch count and sequence numbers, with
    zero-length sleeps, same-time wake-ups and mid-resumption spawns."""
    env = Environment()
    reference = _ReferenceKernel()
    logs = {}
    for kernel, now in ((env, lambda: env.now),
                        (reference, lambda: reference.now)):
        log = logs[kernel] = []
        for index, script in enumerate(scripts):
            name = f"p{index}"
            kernel.process(_scripted(kernel.process, now, log, name,
                                     script), name)
        kernel.run()
    assert logs[env] == logs[reference]
    assert env.now == reference.now
    assert env.events_processed == reference.events_processed
    assert env._sequence == reference.sequence
    assert not env._queue

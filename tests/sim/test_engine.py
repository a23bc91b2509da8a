"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    ScheduleInPastError,
    SimulationError,
)
from repro.sim.errors import AlreadyTriggeredError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_timeout_advances_clock():
    env = Environment()

    def body():
        yield env.timeout(100)
        assert env.now == 100
        yield env.timeout(50)
        assert env.now == 150
        return "done"

    proc = env.process(body())
    assert env.run_process(proc) == "done"
    assert env.now == 150


def test_zero_delay_timeout_runs_same_time():
    env = Environment()
    seen = []

    def body():
        yield env.timeout(0)
        seen.append(env.now)

    env.process(body())
    env.run()
    assert seen == [0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ScheduleInPastError):
        env.timeout(-1)
    # The pooled variant rejects it before it draws from the free list.
    env.pooled_timeout(5)
    env.run()
    pool = list(env._pool)
    assert pool
    with pytest.raises(ScheduleInPastError):
        env.pooled_timeout(-1)
    assert env._pool == pool
    assert env.peek() is None


def test_pooled_timeout_fires_in_schedule_order():
    """Pooled timers go straight onto the heap but share the sequence
    counter, so they interleave with plain timeouts in schedule order."""
    env = Environment()
    order = []

    def body(tag, delay, make):
        yield make(delay)
        order.append((tag, env.now))

    env.process(body("pooled-a", 10, env.pooled_timeout))
    env.process(body("plain", 10, env.timeout))
    env.process(body("pooled-b", 10, env.pooled_timeout))
    env.process(body("pooled-0", 0, env.pooled_timeout))
    env.run()
    assert order == [("pooled-0", 0), ("pooled-a", 10), ("plain", 10),
                     ("pooled-b", 10)]


def test_events_fire_in_schedule_order_at_same_time():
    env = Environment()
    order = []

    def make(tag):
        def body():
            yield env.timeout(10)
            order.append(tag)
        return body

    for tag in ("a", "b", "c"):
        env.process(make(tag)())
    env.run()
    assert order == ["a", "b", "c"]


def test_event_value_passed_to_process():
    env = Environment()
    event = env.event()
    got = []

    def waiter():
        value = yield event
        got.append(value)

    def firer():
        yield env.timeout(5)
        event.succeed(42)

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [42]


def test_event_failure_raises_in_process():
    env = Environment()
    event = env.event()

    def waiter():
        with pytest.raises(ValueError):
            yield event
        return "handled"

    def firer():
        yield env.timeout(1)
        event.fail(ValueError("boom"))

    proc = env.process(waiter())
    env.process(firer())
    env.run()
    assert proc.value == "handled"


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(AlreadyTriggeredError):
        event.succeed(2)
    with pytest.raises(AlreadyTriggeredError):
        event.fail(RuntimeError("x"))


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_waits_on_process():
    env = Environment()

    def inner():
        yield env.timeout(30)
        return 7

    def outer():
        result = yield env.process(inner())
        return result * 2

    assert env.run_process(env.process(outer())) == 14
    assert env.now == 30


def test_yield_already_processed_event():
    env = Environment()

    def body():
        done = env.timeout(0)
        yield env.timeout(10)   # `done` fires while we wait here
        value = yield done      # must not deadlock
        return value

    proc = env.process(body())
    env.run()
    assert proc.ok


def test_run_until_advances_clock_exactly():
    env = Environment()

    def body():
        yield env.timeout(100)

    env.process(body())
    env.run(until=500)
    assert env.now == 500


def test_run_until_does_not_run_future_events():
    env = Environment()
    seen = []

    def body():
        yield env.timeout(100)
        seen.append("early")
        yield env.timeout(1000)
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


def test_all_of_collects_values():
    env = Environment()

    def body():
        events = [env.timeout(10, "a"), env.timeout(5, "b")]
        values = yield env.all_of(events)
        return values

    assert env.run_process(env.process(body())) == ["a", "b"]
    assert env.now == 10


def test_all_of_empty_fires_immediately():
    env = Environment()

    def body():
        values = yield env.all_of([])
        return values

    assert env.run_process(env.process(body())) == []


def test_any_of_returns_first():
    env = Environment()

    def body():
        fast = env.timeout(5, "fast")
        slow = env.timeout(50, "slow")
        winner = yield env.any_of([fast, slow])
        return winner.value

    assert env.run_process(env.process(body())) == "fast"
    assert env.now == 5


def test_any_of_requires_events():
    env = Environment()
    with pytest.raises(SimulationError):
        env.any_of([])


def test_interrupt_raises_in_target():
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            caught.append((env.now, intr.cause))

    def attacker(target):
        yield env.timeout(10)
        target.interrupt("migrate")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert caught == [(10, "migrate")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_unhandled_interrupt_kills_process():
    env = Environment()

    def victim():
        yield env.timeout(1000)

    def attacker(target):
        yield env.timeout(10)
        target.interrupt()

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert target.triggered and not target.ok


def test_non_event_yield_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_deadlock_detection_in_run_process():
    env = Environment()

    def stuck():
        yield env.event()  # never triggered

    proc = env.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_process(proc)


def test_step_on_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_value_before_trigger_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_peek_returns_next_timestamp():
    env = Environment()
    assert env.peek() is None
    env.timeout(25)
    assert env.peek() == 25

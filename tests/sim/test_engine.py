"""Unit tests for the discrete-event kernel."""

import pytest

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
    assert not (env._queue or env._lane)


def test_pooled_timeout_fires_in_schedule_order():
    """Sleeps of any length share one sequence counter: a delay-0 sleep
    takes the lane ahead of every later timestamp, and sleeps that end
    at the same timestamp fire in the order they were scheduled."""
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
    """Only an int delay may be yielded (a bool is not an int delay)."""
    env = Environment()

    def bad():
        yield value

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_step_on_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)

"""Tests for threads and the scheduler."""

import gc
import weakref

import pytest

from repro.os_model.scheduler import Scheduler
from repro.sim.errors import ScheduleInPastError
from repro.topology import dell_r730


@pytest.fixture
def machine():
    return dell_r730()


@pytest.fixture
def sched(machine):
    return Scheduler(machine)


def idle_forever(thread):
    while True:
        yield thread.sleep(1000)


def test_spawn_places_thread_on_core(sched, machine):
    core = machine.core(3)
    thread = sched.spawn("worker", idle_forever, core=core)
    assert thread.core is core
    assert sched.thread_on_core(3) is thread


def test_spawn_default_takes_first_free_core(sched):
    t0 = sched.spawn("a", idle_forever)
    t1 = sched.spawn("b", idle_forever)
    assert t0.core.core_id == 0
    assert t1.core.core_id == 1


def test_spawn_refuses_double_booking(sched, machine):
    sched.spawn("a", idle_forever, core=machine.core(0))
    with pytest.raises(RuntimeError):
        sched.spawn("b", idle_forever, core=machine.core(0))
    sched.spawn("c", idle_forever, core=machine.core(0),
                allow_shared_core=True)


def test_compute_charges_core(sched, machine):
    def busy(thread):
        yield thread.compute(500)

    thread = sched.spawn("busy", busy, core=machine.core(0))
    machine.env.run()
    assert machine.core(0).busy_ns == 500
    assert not thread.is_alive


def test_overlap_charges_cpu_but_advances_max(sched, machine):
    times = []

    def body(thread):
        yield thread.overlap(100, 700)
        times.append(machine.env.now)

    sched.spawn("b", body, core=machine.core(0))
    machine.env.run()
    assert times == [700]
    assert machine.core(0).busy_ns == 100


def test_migration_moves_thread_and_fires_callbacks(sched, machine):
    events = []
    sched.on_migration(lambda t, old, new: events.append(
        (t.name, old.core_id, new.core_id)))
    thread = sched.spawn("mover", idle_forever, core=machine.core(0))
    sched.set_affinity(thread, machine.core(20))
    assert thread.core.core_id == 20
    assert thread.node_id == 1
    assert thread.migrations == 1
    assert events == [("mover", 0, 20)]
    assert sched.thread_on_core(0) is None
    assert sched.thread_on_core(20) is thread


def test_migration_to_same_core_is_noop(sched, machine):
    events = []
    sched.on_migration(lambda *a: events.append(a))
    thread = sched.spawn("t", idle_forever, core=machine.core(0))
    sched.set_affinity(thread, machine.core(0))
    assert events == []
    assert thread.migrations == 0


def test_migration_to_occupied_core_refused(sched, machine):
    sched.spawn("a", idle_forever, core=machine.core(1))
    thread = sched.spawn("b", idle_forever, core=machine.core(2))
    with pytest.raises(RuntimeError):
        sched.set_affinity(thread, machine.core(1))


def test_finished_thread_frees_core(sched, machine):
    def quick(thread):
        yield thread.compute(10)

    sched.spawn("q", quick, core=machine.core(5))
    machine.env.run()
    assert sched.thread_on_core(5) is None
    # The core can be reused now.
    sched.spawn("r", quick, core=machine.core(5))


def test_finished_thread_is_not_kept(sched, machine):
    """Neither the scheduler nor the kernel keeps a thread whose body
    returned: once collected, a weak reference to it is dead, while a
    live thread is kept by its suspended body alone."""
    def quick(thread):
        yield thread.compute(10)

    done = weakref.ref(sched.spawn("q", quick, core=machine.core(5)))
    live = weakref.ref(sched.spawn("a", idle_forever, core=machine.core(6)))
    machine.env.run(until=100)
    gc.collect()
    assert done() is None
    assert live() is not None and sched.thread_on_core(6) is live()


def test_free_cores_shrinks(sched, machine):
    total = len(machine.cores)
    assert len(sched.free_cores()) == total
    sched.spawn("a", idle_forever)
    assert len(sched.free_cores()) == total - 1


def test_thread_cannot_start_twice(sched, machine):
    thread = sched.spawn("a", idle_forever, core=machine.core(0))
    with pytest.raises(RuntimeError):
        thread.start()


def test_thread_compute_rejects_negative(sched, machine):
    def bad(thread):
        yield thread.compute(-5)

    sched.spawn("bad", bad, core=machine.core(0))
    with pytest.raises(ValueError):
        machine.env.run()


def test_thread_sleep_rejects_negative_inside_body(sched, machine):
    """A negative sleep raises at the call, where the body can catch it."""
    caught = []

    def body(thread):
        try:
            yield thread.sleep(-1)
        except ScheduleInPastError as err:
            caught.append(err)
        yield thread.sleep(5)

    thread = sched.spawn("sleeper", body, core=machine.core(0))
    machine.env.run()
    assert len(caught) == 1 and machine.env.now == 5
    assert not thread.is_alive

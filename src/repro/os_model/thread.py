"""Simulated threads.

A :class:`SimThread` wraps a generator body and a current core.  A
body yields only sleeps, the integer ns delays its helpers return::

    def body(thread):
        while True:
            yield thread.compute(500)          # busy CPU time
            yield thread.overlap(cpu_ns, dev_ns)  # pipelined CPU + device

A helper returns the wall time in integer ns (``compute`` and
``overlap`` charge the core when called); the kernel queues the thread's
resumption when the body yields it.  The body's generator is the
thread's :class:`~repro.sim.engine.Process` itself, so the kernel
resumes it with no wrapper frame, and the thread's core is free again
once the body returns (the scheduler reads :attr:`SimThread.is_alive`).
Yield a helper's result at once: anything scheduled between the call
and the yield would take its place in the resumption order.

``overlap`` models the steady-state pipelining of CPU work with device
work: the wall time of a batch is the *max* of the two, but only the CPU
part is charged to the core (this is why a QPI-throttled NIC lowers
throughput while CPU utilisation drops, as in Fig 11).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.engine import Process
from repro.sim.errors import ScheduleInPastError
from repro.topology.machine import Core


class SimThread:
    """A schedulable thread pinned to (at most) one core at a time."""

    def __init__(self, scheduler, name: str,
                 body_fn: Callable[["SimThread"], Generator],
                 core: Core):
        self.scheduler = scheduler
        self.machine = scheduler.machine
        self.env = scheduler.machine.env
        self.name = name
        self.body_fn = body_fn
        self.core = core
        self.process: Optional[Process] = None
        self.migrations = 0

    # ------------------------------------------------------------- state

    @property
    def node_id(self) -> int:
        return self.core.node_id

    @property
    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive

    def start(self) -> Process:
        if self.process is not None:
            raise RuntimeError(f"thread {self.name!r} already started")
        self.process = self.env.process(self.body_fn(self), name=self.name)
        return self.process

    # ----------------------------------------------------------- helpers

    def compute(self, ns: int) -> int:
        """Busy the current core for ``ns``; yield the result at once."""
        return self.core.charge(int(ns))

    def overlap(self, cpu_ns: int, dev_ns: int) -> int:
        """One pipelined batch: wall time max(cpu, dev), core charged cpu.

        Yield the result at once.
        """
        return max(self.core.charge(int(cpu_ns)), int(dev_ns))

    def sleep(self, ns: int) -> int:
        """Block without using CPU; yield the result at once."""
        ns = int(ns)
        if ns < 0:
            raise ScheduleInPastError(f"negative sleep {ns}")
        return ns

    def __repr__(self) -> str:
        return f"<SimThread {self.name} core={self.core.core_id}>"

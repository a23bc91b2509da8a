"""Thread placement and migration.

The paper's experiments pin workloads with ``taskset``/``sched_setaffinity``
and migrate them explicitly (§5.3), so the scheduler models placement and
migration — with migration callbacks that the network stack uses to re-steer
flows (the ARFS callback path, §2.3) — rather than time-slicing.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional
from weakref import WeakValueDictionary

from repro.os_model.thread import SimThread
from repro.topology.machine import Core, Machine

MigrationCallback = Callable[[SimThread, Core, Core], None]


class Scheduler:
    """Places threads on cores; supports explicit migration."""

    def __init__(self, machine: Machine):
        self.machine = machine
        #: core id -> the thread pinned there.  Weak: a live thread is
        #: the argument its suspended body holds, and a finished one is
        #: freed with its body rather than kept for the testbed's life.
        self._core_owner: "WeakValueDictionary[int, SimThread]" = (
            WeakValueDictionary())
        self._migration_callbacks: List[MigrationCallback] = []

    # ---------------------------------------------------------- creation

    def spawn(self, name: str, body_fn: Callable[[SimThread], Generator],
              core: Optional[Core] = None, core_id: Optional[int] = None,
              allow_shared_core: bool = False) -> SimThread:
        """Create and start a thread pinned to ``core``.

        By default each core hosts one thread (all the paper's workloads
        are pinned one-per-core); pass ``allow_shared_core=True`` to relax.
        """
        if core is None:
            if core_id is None:
                core = self._first_free_core()
            else:
                core = self.machine.core(core_id)
        owner = self.thread_on_core(core.core_id)
        if not allow_shared_core and owner is not None:
            raise RuntimeError(
                f"core {core.core_id} already runs {owner.name!r}; "
                f"pass allow_shared_core=True to oversubscribe")
        thread = SimThread(self, name, body_fn, core)
        if owner is None:
            self._core_owner[core.core_id] = thread
        thread.start()
        return thread

    # --------------------------------------------------------- migration

    def set_affinity(self, thread: SimThread, core: Core,
                     allow_shared_core: bool = False) -> None:
        """``sched_setaffinity``: move a thread to another core.

        Fires migration callbacks so the stack can re-steer the thread's
        flows (§5.3's experiment does exactly this at t ~= 4.5 s).
        """
        old = thread.core
        if core is old:
            return
        owner = self.thread_on_core(core.core_id)
        if not allow_shared_core and owner not in (None, thread):
            raise RuntimeError(f"core {core.core_id} is occupied")
        if self._core_owner.get(old.core_id) is thread:
            del self._core_owner[old.core_id]
        if owner is None:
            self._core_owner[core.core_id] = thread
        thread.core = core
        thread.migrations += 1
        for callback in self._migration_callbacks:
            callback(thread, old, core)

    def on_migration(self, callback: MigrationCallback) -> None:
        self._migration_callbacks.append(callback)

    # ----------------------------------------------------------- queries

    def thread_on_core(self, core_id: int) -> Optional[SimThread]:
        """The core's owner, unless its body has returned: a finished
        thread frees its core."""
        owner = self._core_owner.get(core_id)
        return owner if owner is not None and owner.is_alive else None

    def free_cores(self) -> List[Core]:
        return [c for c in self.machine.cores
                if self.thread_on_core(c.core_id) is None]

    # ---------------------------------------------------------- internal

    def _first_free_core(self) -> Core:
        free = self.free_cores()
        if not free:
            raise RuntimeError("no free cores left")
        return free[0]

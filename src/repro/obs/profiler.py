"""Event-engine self-profiler: host wall-clock by event category.

Answers "where does a simulated second's host time go?" — the question
the next perf PR starts from.  The profiler wraps
:meth:`~repro.sim.engine.Environment.step` with a per-event
``perf_counter`` timing, classifying each queue entry *before* dispatch
by mirroring the kernel's lane/heap selection (without popping), so the
attribution adds no events and changes no ordering.  A process's own
resumption (its start, a sleep, a hand-off) is ``process:<name>``; an
event is the waiting process's name (``process:pktgen``) when a process
owns the callback, else the event type.

The wrapper costs two clock reads per event, so a profiled run is
slower — it is a diagnosis tool, never attached by default and excluded
from the obs-overhead bench gate.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.metrics.collect import format_table
from repro.sim.engine import Environment


class EngineProfiler:
    """Attributes host wall-clock to event categories on one env."""

    def __init__(self, env: Environment):
        self.env = env
        #: category -> [event count, wall seconds]
        self.by_category: Dict[str, List[float]] = {}
        self._installed = False

    # ---------------------------------------------------- classification

    def _next_entry(self):
        """The ``(fn, arg)`` step() will dispatch next (kernel selection
        logic, mirrored without popping)."""
        env = self.env
        lane, queue = env._lane, env._queue
        if lane:
            if queue:
                head = queue[0]
                if head[0] <= env._now and head[1] < lane[0][0]:
                    return head[2:]
            return lane[0][1:]
        if queue:
            return queue[0][2:]
        return None

    @staticmethod
    def _category(fn, arg) -> str:
        process = getattr(fn, "__self__", None)
        if process is not None:  # Process._drive: a resumption it queued
            return f"process:{process.name}"
        callbacks = arg.callbacks  # Event._run_callbacks: arg is the event
        if callbacks:
            for callback in callbacks:
                owner = getattr(callback, "__self__", None)
                name = getattr(owner, "name", None)
                if name:
                    return f"process:{name}"
        return f"event:{type(arg).__name__}"

    # -------------------------------------------------------- install

    def install(self) -> None:
        """Shadow ``env.step`` with the timed wrapper (run() picks the
        instance attribute up on its next iteration)."""
        if self._installed:
            raise ValueError("profiler already installed")
        self._installed = True
        orig_step = Environment.step.__get__(self.env)
        by_category = self.by_category
        next_entry = self._next_entry
        category_of = self._category
        clock = time.perf_counter

        def timed_step() -> None:
            entry = next_entry()
            cat = category_of(*entry) if entry is not None else "empty"
            start = clock()
            orig_step()
            elapsed = clock() - start
            cell = by_category.get(cat)
            if cell is None:
                cell = by_category[cat] = [0, 0.0]
            cell[0] += 1
            cell[1] += elapsed

        self.env.step = timed_step

    def uninstall(self) -> None:
        if self._installed:
            self.env.__dict__.pop("step", None)
            self._installed = False

    # -------------------------------------------------------- reporting

    def total_wall_s(self) -> float:
        return sum(cell[1] for cell in self.by_category.values())

    def rows(self, top: Optional[int] = None) -> List[list]:
        """[category, events, wall_ms, share] rows, hottest first."""
        total = self.total_wall_s() or 1.0
        ordered = sorted(self.by_category.items(),
                         key=lambda item: item[1][1], reverse=True)
        if top is not None:
            ordered = ordered[:top]
        return [[cat, int(count), wall * 1e3, wall / total]
                for cat, (count, wall) in ordered]

    def table(self, top: Optional[int] = 12) -> str:
        return format_table(
            ("category", "events", "wall ms", "share"),
            self.rows(top),
            title="engine self-profile (host wall-clock by event type)")

"""Common workload machinery."""

from __future__ import annotations

from repro.metrics.collect import ThroughputMeter
from repro.os_model.thread import SimThread


class Workload:
    """Base class: a workload spawns one or more threads on a Host."""

    def __init__(self, host, duration_ns: int, warmup_ns: int = 0):
        if duration_ns <= warmup_ns:
            raise ValueError(
                f"duration {duration_ns} must exceed warmup {warmup_ns}")
        self.host = host
        self.env = host.machine.env
        self.duration_ns = int(duration_ns)
        self.warmup_ns = int(warmup_ns)
        self.threads: list = []

    def in_measurement(self) -> bool:
        return self.warmup_ns <= self.env._now < self.duration_ns

    def done(self) -> bool:
        return self.env._now >= self.duration_ns

    def _spawn(self, name: str, body, core) -> SimThread:
        thread = self.host.scheduler.spawn(name, body, core=core)
        self.threads.append(thread)
        return thread


def measured_meter(workload: Workload) -> ThroughputMeter:
    """A throughput meter covering the post-warmup window."""
    return ThroughputMeter(start_ns=workload.warmup_ns)

"""Periodic utilization sampling driven by sim-time callbacks.

A :class:`UtilizationSampler` is an ordinary simulation process that
wakes every ``interval_ns``, reads a set of cumulative counters, and
feeds per-interval deltas (or raw gauge values) into
:class:`~repro.metrics.collect.TimeSeries`.

Determinism: the sampler only **reads**.  It never mutates model state,
never draws from the simulation RNG, and never charges a resource, so
its sleeps interleave with the workload's without changing any
model-visible value — exact-mode goldens stay bit-identical with a
sampler attached (pinned by tests/obs/test_determinism_with_obs.py).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.metrics.collect import TimeSeries

#: Default sampling cadence: 1 ms of sim time.
DEFAULT_INTERVAL_NS = 1_000_000


class UtilizationSampler:
    """Samples bound channels every ``interval_ns`` until ``horizon_ns``.

    Two channel kinds:

    * ``"gauge"`` — record ``fn()`` as-is (hit rates, occupancy).
    * ``"rate"``  — ``fn()`` is a cumulative byte/ns counter; record the
      per-interval delta normalised by the interval (so a busy-ns
      counter becomes a 0..1 utilisation, a byte counter becomes
      bytes/ns — multiply by 8 for Gb/s at the export layer).
    """

    def __init__(self, env, interval_ns: int = DEFAULT_INTERVAL_NS):
        if interval_ns < 1:
            raise ValueError(f"interval must be >= 1 ns, got {interval_ns}")
        self.env = env
        self.interval_ns = int(interval_ns)
        self.series: Dict[str, TimeSeries] = {}
        self._channels: List[tuple] = []
        self._prev: Dict[str, float] = {}
        self.samples_taken = 0
        self._started = False

    # -------------------------------------------------------- channels

    def add_gauge(self, name: str, fn: Callable[[], float]) -> TimeSeries:
        return self._add(name, fn, "gauge")

    def add_rate(self, name: str, fn: Callable[[], float]) -> TimeSeries:
        return self._add(name, fn, "rate")

    def _add(self, name: str, fn: Callable[[], float],
             kind: str) -> TimeSeries:
        if name in self.series:
            raise ValueError(f"sampler channel {name!r} already exists")
        series = TimeSeries(name)
        self.series[name] = series
        self._channels.append((name, fn, kind, series))
        if kind == "rate":
            self._prev[name] = fn()
        return series

    # ------------------------------------------------------- execution

    def start(self, horizon_ns: int) -> None:
        """Spawn the sampling process, stopping at ``horizon_ns`` so a
        final ``env.run()`` drain is never kept alive by the sampler."""
        if self._started:
            raise ValueError("sampler already started")
        self._started = True
        self.env.process(self._body(int(horizon_ns)), name="obs-sampler")

    def _body(self, horizon_ns: int):
        while self.env.now + self.interval_ns <= horizon_ns:
            yield self.interval_ns
            self._take()

    def _take(self) -> None:
        now = self.env.now
        interval = self.interval_ns
        for name, fn, kind, series in self._channels:
            value = fn()
            if kind == "rate":
                delta = value - self._prev[name]
                self._prev[name] = value
                series.sample(now, delta / interval)
            else:
                series.sample(now, value)
        self.samples_taken += 1

    # --------------------------------------------------------- export

    def counter_tracks(self) -> Dict[str, List[tuple]]:
        """Series as (time_ns, value) lists for Perfetto counter rows."""
        return {name: list(zip(s.times_ns, s.values))
                for name, s in self.series.items()}

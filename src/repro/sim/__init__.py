"""Deterministic discrete-event simulation kernel (nanosecond clock)."""

from repro.sim.engine import Environment, Process
from repro.sim.errors import ScheduleInPastError, SimulationError
from repro.sim.resources import BandwidthServer
from repro.sim.rng import SimRandom
from repro.sim.tracing import NULL_TRACER, TraceFlow, TraceRecord, Tracer

__all__ = [
    "BandwidthServer",
    "Environment",
    "NULL_TRACER",
    "Process",
    "ScheduleInPastError",
    "SimRandom",
    "SimulationError",
    "TraceFlow",
    "TraceRecord",
    "Tracer",
]

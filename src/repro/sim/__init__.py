"""Deterministic discrete-event simulation kernel (nanosecond clock)."""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.errors import (
    AlreadyTriggeredError,
    Interrupt,
    ScheduleInPastError,
    SimulationError,
)
from repro.sim.resources import (
    BandwidthServer,
    Request,
    Resource,
    Store,
)
from repro.sim.rng import SimRandom
from repro.sim.tracing import NULL_TRACER, TraceFlow, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "AlreadyTriggeredError",
    "BandwidthServer",
    "Environment",
    "Event",
    "Interrupt",
    "NULL_TRACER",
    "Process",
    "Request",
    "Resource",
    "ScheduleInPastError",
    "SimRandom",
    "SimulationError",
    "Store",
    "Timeout",
    "TraceFlow",
    "TraceRecord",
    "Tracer",
]

"""Unified observability: metrics registry, flow tracing and samplers.

Everything here is read-only with respect to the simulation model —
attaching observability never changes simulated results (the
determinism goldens pin this).  :class:`ObsSession` is the single
entry point; the submodules are usable standalone.
"""

from repro.obs.export import prometheus_name, to_perfetto, to_prometheus
from repro.obs.instrument import (
    instrument_machine,
    instrument_net_driver,
    instrument_netstack,
    instrument_pfs,
)
from repro.obs.registry import Gauge, MetricsRegistry
from repro.obs.sampler import DEFAULT_INTERVAL_NS, UtilizationSampler
from repro.obs.session import ObsSession

__all__ = [
    "DEFAULT_INTERVAL_NS",
    "Gauge",
    "MetricsRegistry",
    "ObsSession",
    "UtilizationSampler",
    "instrument_machine",
    "instrument_net_driver",
    "instrument_netstack",
    "instrument_pfs",
    "prometheus_name",
    "to_perfetto",
    "to_prometheus",
]

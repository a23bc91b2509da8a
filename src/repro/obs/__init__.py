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
    instrument_nvme_driver,
    instrument_pfs,
)
from repro.obs.registry import (
    NOOP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopInstrument,
)
from repro.obs.sampler import DEFAULT_INTERVAL_NS, UtilizationSampler
from repro.obs.session import ObsSession

__all__ = [
    "NOOP",
    "Counter",
    "DEFAULT_INTERVAL_NS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopInstrument",
    "ObsSession",
    "UtilizationSampler",
    "instrument_machine",
    "instrument_net_driver",
    "instrument_netstack",
    "instrument_nvme_driver",
    "instrument_pfs",
    "prometheus_name",
    "to_perfetto",
    "to_prometheus",
]

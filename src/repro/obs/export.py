"""Exports: Prometheus text exposition and Perfetto trace assembly."""

from __future__ import annotations

import re
from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry
from repro.sim.tracing import Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """Dotted instrument name -> Prometheus metric name."""
    return f"repro_{_NAME_RE.sub('_', name)}"


def to_prometheus(registry: MetricsRegistry,
                  labels: Optional[Dict[str, str]] = None) -> str:
    """Prometheus text exposition (0.0.4) of every gauge.

    ``labels`` is stamped onto every sample — the fleet export passes
    ``{"server": "<id>"}`` so merged per-server registries stay
    distinguishable after scraping.
    """
    parts = [f'{key}="{labels[key]}"' for key in sorted(labels or {})]
    block = "{" + ",".join(parts) + "}" if parts else ""
    lines = []
    for name in registry.names():
        gauge = registry.instruments[name]
        metric = prometheus_name(name)
        if gauge.help:
            lines.append(f"# HELP {metric} {gauge.help}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{block} {gauge.value}")
    return "\n".join(lines) + "\n"


def to_perfetto(tracer: Tracer, sampler=None) -> str:
    """Chrome/Perfetto JSON: trace records plus the sampler's counter
    tracks, in one document."""
    counters = sampler.counter_tracks() if sampler is not None else None
    return tracer.to_chrome_trace(counters=counters)

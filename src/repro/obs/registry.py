"""The metrics registry: namespaced Counter/Gauge/Histogram instruments.

Design rules (the determinism section of DESIGN.md spells out why):

* **Zero cost when disabled.**  A disabled registry hands out one shared
  no-op instrument and registers nothing, so instrumented code pays a
  method call that does nothing — and the preferred instrumentation
  style avoids even that: gauges *bind a read function* over counters
  the components already maintain (``server.bytes_total``,
  ``llc.hits_bytes``, ...), so the hot paths are untouched and the cost
  of observability is paid at collection time, not per event.
* **Read-only.**  Instruments never mutate model state and never draw
  from the simulation RNG, so attaching a registry cannot perturb the
  deterministic event stream.
* **Namespaced.**  Dotted names (``srv.qpi.0to1.occupancy``) group
  instruments per component; ``detail=True`` marks per-queue/per-core
  instruments the CLI table folds away unless asked for everything.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Union


class NoopInstrument:
    """Absorbs every instrument call; shared singleton when disabled."""

    __slots__ = ()

    def inc(self, n: Union[int, float] = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The one no-op instance every disabled registry hands out.
NOOP = NoopInstrument()


class Counter:
    """A monotonically increasing count (doorbells rung, retries, ...)."""

    kind = "counter"
    __slots__ = ("name", "help", "detail", "_value")

    def __init__(self, name: str, help: str = "", detail: bool = False):
        self.name = name
        self.help = help
        self.detail = detail
        self._value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {n}")
        self._value += n

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge:
    """A point-in-time value; usually *bound* to a component counter.

    ``fn`` is evaluated at read time, which is what makes gauges free on
    the hot path: the component keeps its plain integer counter and the
    gauge reads it only when someone collects.
    """

    kind = "gauge"
    __slots__ = ("name", "help", "detail", "fn", "_value")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None,
                 help: str = "", detail: bool = False):
        self.name = name
        self.help = help
        self.detail = detail
        self.fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is bound to a function")
        self._value = value

    @property
    def value(self) -> float:
        if self.fn is not None:
            return self.fn()
        return self._value


class Histogram:
    """A distribution: observations summarised as count/sum/percentiles."""

    kind = "histogram"
    __slots__ = ("name", "help", "detail", "samples", "_sorted")

    def __init__(self, name: str, help: str = "", detail: bool = False):
        self.name = name
        self.help = help
        self.detail = detail
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return sum(self.samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over all observations, p in [0, 100]."""
        if not self.samples:
            raise ValueError(f"histogram {self.name} has no samples")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self.samples)
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": min(self.samples),
            "max": max(self.samples),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Creates and owns instruments under dotted names.

    When ``enabled=False`` every factory returns the shared
    :data:`NOOP` instrument and nothing is registered, so a disabled
    registry costs nothing to carry around and (by construction) nothing
    per event.

    ``namespace`` prefixes every registered name (``namespace.name``) —
    the fleet merge path gives each server's metrics its own namespace
    (``srv0.``, ``srv1.``, ...) so merged registries never collide on
    instrument names.
    """

    def __init__(self, enabled: bool = True, namespace: str = ""):
        self.enabled = enabled
        self.namespace = namespace
        self.instruments: Dict[str, Instrument] = {}

    # -------------------------------------------------------- factories

    def _qualify(self, name: str) -> str:
        return f"{self.namespace}.{name}" if self.namespace else name

    def _register(self, instrument: Instrument) -> Instrument:
        if instrument.name in self.instruments:
            raise ValueError(
                f"instrument {instrument.name!r} already registered")
        self.instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                detail: bool = False) -> Union[Counter, NoopInstrument]:
        if not self.enabled:
            return NOOP
        return self._register(Counter(self._qualify(name), help, detail))

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              help: str = "",
              detail: bool = False) -> Union[Gauge, NoopInstrument]:
        if not self.enabled:
            return NOOP
        return self._register(Gauge(self._qualify(name), fn, help, detail))

    def histogram(self, name: str, help: str = "",
                  detail: bool = False) -> Union[Histogram, NoopInstrument]:
        if not self.enabled:
            return NOOP
        return self._register(Histogram(self._qualify(name), help, detail))

    # ----------------------------------------------------------- merging

    def absorb(self, values: Dict[str, float],
               namespace: str = "") -> None:
        """Register a flat ``name -> value`` mapping (a worker's
        ``collect()`` output) as plain gauges, optionally under an extra
        ``namespace`` prefix.

        This is how a fleet run merges per-worker registries shipped
        across process boundaries: each server's collected values land
        under its own namespace, so no two servers' instruments collide.
        A collision (same fully-qualified name twice) still raises — the
        caller picked overlapping namespaces.
        """
        if not self.enabled:
            return
        for name in sorted(values):
            qualified = f"{namespace}.{name}" if namespace else name
            gauge = Gauge(self._qualify(qualified))
            gauge.set(float(values[name]))
            self._register(gauge)

    # ------------------------------------------------------- collection

    def get(self, name: str) -> Instrument:
        return self.instruments[name]

    def names(self) -> List[str]:
        return sorted(self.instruments)

    def collect(self, include_detail: bool = True) -> Dict[str, float]:
        """Evaluate every instrument into a flat name -> value mapping.

        Histograms expand into ``name.count`` / ``name.p50`` / ... keys.
        """
        out: Dict[str, float] = {}
        for name in self.names():
            instrument = self.instruments[name]
            if instrument.detail and not include_detail:
                continue
            if instrument.kind == "histogram":
                for key, value in instrument.summary().items():
                    out[f"{name}.{key}"] = value
            else:
                out[name] = instrument.value
        return out

"""The metrics registry: namespaced gauges.

Design rules (the determinism section of DESIGN.md spells out why):

* **Zero cost when disabled.**  A disabled registry registers nothing.
  Gauges *bind a read function* over counters the components already
  maintain (``server.bytes_total``, ``llc.hits_bytes``, ...), so the hot
  paths are untouched and the cost of observability is paid at
  collection time, not per event.
* **Read-only.**  Instruments never mutate model state and never draw
  from the simulation RNG, so attaching a registry cannot perturb the
  deterministic event stream.
* **Namespaced.**  Dotted names (``srv.qpi.0to1.occupancy``) group
  instruments per component; ``detail=True`` marks per-queue/per-core
  instruments the CLI table folds away unless asked for everything.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class Gauge:
    """A point-in-time value; usually *bound* to a component counter.

    ``fn`` is evaluated at read time, which is what makes gauges free on
    the hot path: the component keeps its plain integer counter and the
    gauge reads it only when someone collects.
    """

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


class MetricsRegistry:
    """Creates and owns gauges under dotted names.

    When ``enabled=False`` :meth:`gauge` returns None and nothing is
    registered, so a disabled registry costs nothing to carry around and
    (by construction) nothing per event.

    ``namespace`` prefixes every registered name (``namespace.name``) —
    the fleet merge path gives each server's metrics its own namespace
    (``srv0.``, ``srv1.``, ...) so merged registries never collide on
    instrument names.
    """

    def __init__(self, enabled: bool = True, namespace: str = ""):
        self.enabled = enabled
        self.namespace = namespace
        self.instruments: Dict[str, Gauge] = {}

    # -------------------------------------------------------- factories

    def _qualify(self, name: str) -> str:
        return f"{self.namespace}.{name}" if self.namespace else name

    def _register(self, gauge: Gauge) -> Gauge:
        if gauge.name in self.instruments:
            raise ValueError(f"instrument {gauge.name!r} already registered")
        self.instruments[gauge.name] = gauge
        return gauge

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              help: str = "", detail: bool = False) -> Optional[Gauge]:
        if not self.enabled:
            return None
        return self._register(Gauge(self._qualify(name), fn, help, detail))

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

    def get(self, name: str) -> Gauge:
        return self.instruments[name]

    def names(self) -> List[str]:
        return sorted(self.instruments)

    def collect(self, include_detail: bool = True) -> Dict[str, float]:
        """Evaluate every gauge into a flat name -> value mapping."""
        out: Dict[str, float] = {}
        for name in self.names():
            gauge = self.instruments[name]
            if gauge.detail and not include_detail:
                continue
            out[name] = gauge.value
        return out

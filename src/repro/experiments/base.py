"""Experiment framework: one registered experiment per paper table/figure.

Every experiment produces an :class:`ExperimentResult` whose rows mirror
the paper's axes, so the benchmark harness can both print the table and
assert the paper's qualitative claims (who wins, by what factor).
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.metrics.collect import format_table

#: Milliseconds of simulated time per configuration point, by fidelity.
DURATIONS_MS = {"quick": 10, "normal": 40, "long": 200}


def duration_of(fidelity: str) -> int:
    """Simulated ns per configuration point at ``fidelity``; an unknown
    fidelity is a ValueError."""
    try:
        return DURATIONS_MS[fidelity] * 1_000_000
    except KeyError:
        raise ValueError(f"fidelity must be one of {sorted(DURATIONS_MS)}, "
                         f"got {fidelity!r}") from None


#: Accuracy tiers of the point runners that take one.
#:
#: * ``"exact"``    — today's per-packet, bit-identical behaviour; seeded
#:   runs reproduce the determinism goldens byte-for-byte.
#: * ``"adaptive"`` — steady-state packet-train coalescing in the
#:   workloads plus early termination in the experiment runners: far
#:   fewer events, but not exact; README lists the quick-fidelity
#:   cells it puts more than 2% off.
ACCURACY_MODES = ("exact", "adaptive")


#: Process-wide accuracy override, set by the CLI's --accuracy flag.
_accuracy_override: Optional[str] = None


def configure_accuracy(mode: Optional[str]) -> None:
    """Set (or clear, with None) the process-wide accuracy override."""
    global _accuracy_override
    if mode is not None and mode not in ACCURACY_MODES:
        raise ValueError(
            f"accuracy must be one of {ACCURACY_MODES}, got {mode!r}")
    _accuracy_override = mode


def resolve_accuracy(fallback: str) -> str:
    """The accuracy tier of a run that names none: the
    :func:`configure_accuracy` override, else ``REPRO_ACCURACY``, else
    the caller's ``fallback``."""
    if _accuracy_override is not None:
        return _accuracy_override
    mode = os.environ.get("REPRO_ACCURACY")
    if not mode:
        return fallback
    if mode not in ACCURACY_MODES:
        raise ValueError(f"REPRO_ACCURACY must be one of {ACCURACY_MODES}, "
                         f"got {mode!r}")
    return mode


@dataclass
class ExperimentResult:
    """The rows an experiment regenerates."""

    experiment: str
    paper_ref: str
    headers: List[str]
    rows: List[Sequence] = field(default_factory=list)
    notes: str = ""

    def add(self, *row) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, headers have "
                f"{len(self.headers)}")
        self.rows.append(row)

    def table(self) -> str:
        title = f"{self.experiment} ({self.paper_ref})"
        text = format_table(self.headers, self.rows, title=title)
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text

    def column(self, header: str) -> List:
        try:
            index = self.headers.index(header)
        except ValueError:
            raise KeyError(f"no column {header!r}; have {self.headers}")
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict]:
        return [dict(zip(self.headers, row)) for row in self.rows]


class Experiment:
    """Base class; subclasses set metadata and implement ``run()``."""

    name = "base"
    paper_ref = ""
    description = ""

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        raise NotImplementedError

    def duration_ns(self, fidelity: str) -> int:
        duration = duration_of(fidelity)
        # Remember the fidelity so accuracy() can default quick runs to
        # the adaptive fast path.
        self._fidelity = fidelity
        return duration

    def accuracy(self) -> str:
        """Accuracy mode for this experiment's sweep points.

        Resolved by :func:`resolve_accuracy`, whose fallback here is the
        fidelity default: quick runs take the adaptive fast path,
        normal/long runs stay exact.  Only point functions with an
        ``accuracy`` parameter receive it (see :meth:`sweep`): the
        points of fig06–fig09, fig11, fig12 and sec24.  Throughput
        points coalesce packet trains and stop early once their rate
        converges; latency points (fig09's TCP_RR, fig12's sockperf)
        form no trains and stop once their average converges.  Every
        other experiment runs exact at every tier.
        """
        quick = getattr(self, "_fidelity", None) == "quick"
        return resolve_accuracy("adaptive" if quick else "exact")

    def result(self, headers: List[str], notes: str = "") -> (
            ExperimentResult):
        return ExperimentResult(self.name, self.paper_ref, headers,
                                notes=notes)

    def sweep(self, fn: Callable, points: Sequence[Dict]) -> List:
        """Run the figure's independent points through the sweep executor
        (parallel across --jobs workers, disk-cached when configured);
        results come back in submission order.

        Point functions that accept an ``accuracy`` parameter get this
        experiment's resolved mode injected (explicit per-point values
        win); functions without the parameter — fig10's memcached
        points, the fault and time-series runners, and the fio points
        of fig15 and abl_octossd, whose meters count whole 4 MB batches
        and so keep the fixed window — are left untouched and stay
        exact.
        """
        from repro.experiments.sweep import sweep_map
        if "accuracy" in inspect.signature(fn).parameters:
            accuracy = self.accuracy()
            points = [point if "accuracy" in point
                      else {**point, "accuracy": accuracy}
                      for point in points]
        return sweep_map(fn, points)


_REGISTRY: Dict[str, Callable[[], Experiment]] = {}


def register(cls):
    """Class decorator adding an experiment to the registry."""
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate experiment name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"known: {sorted(_REGISTRY)}") from None


def all_experiment_names() -> List[str]:
    return sorted(_REGISTRY)

"""Declarative fault plans.

A plan is a list of :class:`FaultSpec` entries, each naming a fault kind,
an injection time, an optional duration (transient faults recover; a
``None`` duration is permanent), and the kind-specific target/parameters.
Plans are value objects: two runs given equal plans and equal seeds
produce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

#: Every fault kind the injector knows how to fire.
FAULT_KINDS = (
    "pf_down",        # surprise-remove one PF        (target: pf_id)
    "pcie_link_down",  # PF's link drops               (target: pf_id)
    "pcie_degrade",   # PF's link retrains narrower   (target: pf_id, lanes)
    "wire_loss",      # wire loss/corruption burst    (probabilities)
    "qpi_throttle",   # one interconnect direction    (src/dst, factor)
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what, when, for how long, and against which target."""

    kind: str
    at_ns: int
    duration_ns: Optional[int] = None
    pf_id: Optional[int] = None
    lanes: Optional[int] = None
    loss_probability: float = 0.0
    corrupt_probability: float = 0.0
    src_node: Optional[int] = None
    dst_node: Optional[int] = None
    throttle_factor: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {FAULT_KINDS}")
        if self.at_ns < 0:
            raise ValueError(f"at_ns must be >= 0, got {self.at_ns}")
        if self.duration_ns is not None and self.duration_ns < 1:
            raise ValueError(
                f"duration_ns must be >= 1 or None, got {self.duration_ns}")
        for name, probability in (
                ("loss_probability", self.loss_probability),
                ("corrupt_probability", self.corrupt_probability)):
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"{self.kind}: {name} must be in [0, 1], "
                    f"got {probability}")
        if self.loss_probability + self.corrupt_probability > 1.0:
            raise ValueError(
                f"{self.kind}: loss_probability + corrupt_probability "
                f"must not exceed 1, got "
                f"{self.loss_probability + self.corrupt_probability}")
        if self.kind in ("pf_down", "pcie_link_down", "pcie_degrade"):
            if self.pf_id is None:
                raise ValueError(
                    f"{self.kind} targets one physical function: "
                    f"pass pf_id")
            if self.pf_id < 0:
                raise ValueError(
                    f"{self.kind}: pf_id must be >= 0, got {self.pf_id}")
        if self.kind == "pcie_degrade" and (self.lanes is None
                                            or self.lanes < 1):
            raise ValueError(
                f"pcie_degrade retrains the link narrower: pass "
                f"lanes >= 1, got {self.lanes}")
        if self.kind == "wire_loss":
            if self.loss_probability <= 0 and self.corrupt_probability <= 0:
                raise ValueError(
                    "wire_loss needs loss_probability and/or "
                    "corrupt_probability > 0 (both were 0)")
        if self.kind == "qpi_throttle":
            if self.src_node is None or self.dst_node is None:
                raise ValueError(
                    "qpi_throttle targets one interconnect direction: "
                    "pass both src_node and dst_node")
            if self.throttle_factor is None or not (
                    0.0 < self.throttle_factor < 1.0):
                raise ValueError(
                    f"qpi_throttle needs throttle_factor > 0 and < 1 "
                    f"(the fraction of link rate that remains), got "
                    f"{self.throttle_factor}")

    @property
    def is_transient(self) -> bool:
        return self.duration_ns is not None

    @property
    def ends_at_ns(self) -> Optional[int]:
        if self.duration_ns is None:
            return None
        return self.at_ns + self.duration_ns

    def describe(self) -> str:
        """A stable one-line rendering (used in traces, so it must not
        depend on object identity)."""
        parts = [self.kind, f"at={self.at_ns}"]
        if self.duration_ns is not None:
            parts.append(f"dur={self.duration_ns}")
        if self.pf_id is not None:
            parts.append(f"pf={self.pf_id}")
        if self.lanes is not None:
            parts.append(f"lanes={self.lanes}")
        if self.loss_probability:
            parts.append(f"loss={self.loss_probability:g}")
        if self.corrupt_probability:
            parts.append(f"corrupt={self.corrupt_probability:g}")
        if self.src_node is not None:
            parts.append(f"qpi={self.src_node}->{self.dst_node}")
        if self.throttle_factor is not None:
            parts.append(f"factor={self.throttle_factor:g}")
        return " ".join(parts)


@dataclass
class FaultPlan:
    """An ordered collection of fault specs."""

    specs: List[FaultSpec] = field(default_factory=list)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def ordered(self) -> List[FaultSpec]:
        """Specs in firing order: by injection time, ties broken by the
        order they were added (stable sort), so replay is deterministic."""
        return sorted(self.specs, key=lambda s: s.at_ns)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.ordered())

    def describe(self) -> List[str]:
        return [spec.describe() for spec in self.ordered()]

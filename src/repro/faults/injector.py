"""The fault injector: fires a :class:`FaultPlan` against live components.

One injector process walks the plan in time order; each transient fault
also schedules its own recovery process, so overlapping faults compose.
Every injection and recovery is appended to :attr:`FaultInjector.events`
(and mirrored to the machine tracer when one is enabled) as plain
strings, which makes "same seed -> byte-identical fault trace" a direct
list comparison.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.device.base import MultiPfDevice
from repro.faults.plan import FaultPlan, FaultSpec
from repro.nic.wire import EthernetWire
from repro.sim.engine import Environment
from repro.sim.rng import SimRandom
from repro.sim.tracing import Tracer
from repro.topology.machine import Machine


class FaultInjector:
    """Fires a fault plan against a device / wire / machine triple."""

    def __init__(self, env: Environment, plan: FaultPlan,
                 device: Optional[MultiPfDevice] = None,
                 wire: Optional[EthernetWire] = None,
                 machine: Optional[Machine] = None,
                 rng: Optional[SimRandom] = None,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.plan = plan
        self.device = device
        self.wire = wire
        self.machine = machine
        self.rng = (rng or SimRandom(0, name="faults")).child("injector")
        self.tracer = tracer or (machine.tracer if machine is not None
                                 else None)
        #: (time_ns, event, detail) triples — the replayable fault trace.
        self.events: List[Tuple[int, str, str]] = []
        self._process = None
        self._validate_targets()

    # ------------------------------------------------------------ driving

    def start(self):
        """Spawn the injector process (call before ``env.run``)."""
        if self._process is not None:
            raise RuntimeError("fault injector already started")
        self._process = self.env.process(self._body(), name="fault-injector")
        return self._process

    def _body(self):
        for spec in self.plan.ordered():
            delay = spec.at_ns - self.env.now
            if delay > 0:
                yield int(delay)
            self._inject(spec)
            if spec.is_transient:
                self.env.process(self._recover_later(spec),
                                 name=f"fault-recover-{spec.kind}")

    def _recover_later(self, spec: FaultSpec):
        yield int(spec.duration_ns)
        self._recover(spec)

    # ---------------------------------------------------------- injection

    def _inject(self, spec: FaultSpec) -> None:
        if spec.kind == "pf_down":
            self.device.surprise_remove(spec.pf_id)
        elif spec.kind == "pcie_link_down":
            self.device.surprise_remove(spec.pf_id, cause="link-down")
        elif spec.kind == "pcie_degrade":
            self.device.pf(spec.pf_id).link.degrade(spec.lanes)
        elif spec.kind == "wire_loss":
            self.wire.start_impairment(
                self.rng.child(f"wire@{spec.at_ns}"),
                loss_probability=spec.loss_probability,
                corrupt_probability=spec.corrupt_probability)
        elif spec.kind == "qpi_throttle":
            self.machine.interconnect.link(
                spec.src_node, spec.dst_node).throttle(spec.throttle_factor)
        self._record("fault", spec)

    def _recover(self, spec: FaultSpec) -> None:
        if spec.kind in ("pf_down", "pcie_link_down"):
            self.device.recover_pf(spec.pf_id)
        elif spec.kind == "pcie_degrade":
            self.device.pf(spec.pf_id).link.restore()
        elif spec.kind == "wire_loss":
            self.wire.stop_impairment()
        elif spec.kind == "qpi_throttle":
            self.machine.interconnect.link(
                spec.src_node, spec.dst_node).unthrottle()
        self._record("recover", spec)

    def _record(self, phase: str, spec: FaultSpec) -> None:
        event = f"{phase}.{spec.kind}"
        detail = spec.describe()
        self.events.append((self.env.now, event, detail))
        if self.tracer is not None:
            self.tracer.emit(self.env.now, "fault-injector", event, detail)

    def rendered_events(self) -> List[str]:
        """The fault/recovery trace as stable strings (determinism
        checks compare these byte-for-byte)."""
        return [f"[{t}] {event} {detail}"
                for t, event, detail in self.events]

    # --------------------------------------------------------- validation

    def _validate_targets(self) -> None:
        """Fail fast at construction: every spec must have the component
        it targets, so a bad plan doesn't die mid-simulation."""
        for spec in self.plan.ordered():
            if spec.kind in ("pf_down", "pcie_link_down", "pcie_degrade"):
                if self.device is None:
                    raise ValueError(f"{spec.kind} fault needs a device")
                if not 0 <= spec.pf_id < len(self.device.pfs):
                    raise ValueError(
                        f"{spec.kind}: pf_id {spec.pf_id} out of range "
                        f"for {len(self.device.pfs)}-PF device")
                if spec.kind == "pcie_degrade":
                    link = self.device.pf(spec.pf_id).link
                    if spec.lanes > link.lanes:
                        raise ValueError(
                            f"pcie_degrade: {spec.lanes} lanes exceeds "
                            f"the link's {link.lanes}")
            elif spec.kind == "wire_loss":
                if self.wire is None:
                    raise ValueError("wire_loss fault needs a wire")
            elif spec.kind == "qpi_throttle":
                if self.machine is None:
                    raise ValueError("qpi_throttle fault needs a machine")
                num_nodes = self.machine.spec.num_nodes
                for node in (spec.src_node, spec.dst_node):
                    if not 0 <= node < num_nodes:
                        raise ValueError(
                            f"qpi_throttle: node {node} out of range")

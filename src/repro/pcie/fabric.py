"""PCIe fabric: links, physical functions, and bifurcation.

A device occupies one or more **physical functions** (PFs).  Each PF is an
endpoint attached to exactly one CPU socket's I/O controller — that
attachment point is what decides whether its DMA is local or remote, i.e.
the root of the NUDMA problem (§2.2).  Bifurcation (§3.2) splits a device's
lanes across several PFs so that one device can attach to every socket.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Environment
from repro.sim.errors import DeviceGoneError
from repro.sim.resources import BandwidthServer
from repro.topology.constants import PcieSpec
from repro.topology.machine import Machine


class PcieLink:
    """One PF's lane bundle: independent upstream/downstream byte servers.

    A link can be *degraded* (retrained to fewer lanes — both servers run
    at the reduced rate) and *restored* to its full width.
    """

    def __init__(self, env: Environment, name: str, spec: PcieSpec,
                 lanes: int):
        if lanes < 1:
            raise ValueError(f"PCIe link needs >= 1 lane, got {lanes}")
        self.spec = spec
        self.lanes = lanes
        self.active_lanes = lanes
        rate = lanes * spec.bytes_per_sec_per_lane
        self.upstream = BandwidthServer(env, rate, name=f"{name}.up")
        self.downstream = BandwidthServer(env, rate, name=f"{name}.down")

    @property
    def bytes_per_sec(self) -> float:
        return self.active_lanes * self.spec.bytes_per_sec_per_lane

    @property
    def is_degraded(self) -> bool:
        return self.active_lanes < self.lanes

    def degrade(self, active_lanes: int) -> None:
        """Retrain the link to ``active_lanes`` (fault injection)."""
        if not 1 <= active_lanes <= self.lanes:
            raise ValueError(
                f"active_lanes must be in [1, {self.lanes}], "
                f"got {active_lanes}")
        self.active_lanes = active_lanes
        rate = active_lanes * self.spec.bytes_per_sec_per_lane
        self.upstream.set_rate(rate)
        self.downstream.set_rate(rate)

    def restore(self) -> None:
        """Retrain back to the full lane width."""
        self.degrade(self.lanes)


class PhysicalFunction:
    """A PCIe endpoint: the device's presence on one socket."""

    def __init__(self, machine: Machine, pf_id: int, attach_node: int,
                 lanes: int, name: str = ""):
        if not 0 <= attach_node < machine.spec.num_nodes:
            raise ValueError(f"attach_node {attach_node} out of range")
        self.machine = machine
        self.pf_id = pf_id
        self.attach_node = attach_node
        self.name = name or f"pf{pf_id}"
        self.link = PcieLink(machine.env, self.name, machine.spec.pcie,
                             lanes)
        #: Set by the owning device when registered.
        self.device: Optional[object] = None
        #: DMA-engine window state (see MemorySystem._dma_serialization).
        self.dma_window_free_at = 0
        #: False after a surprise removal until the PF is recovered.
        self.alive = True
        #: TLP route constants, resolved once: the PCIe half round trip
        #: and the interconnect's ``[src][dst]`` link table (the topology
        #: is fixed at construction, so per-call lookups are pure
        #: overhead).
        self._half_rtt = machine.spec.pcie.round_trip_ns // 2
        self._qpi = machine.interconnect.table
        self._memory = machine.memory

    # ------------------------------------------------------- fault state

    def fail(self) -> None:
        """Surprise-remove this endpoint: every DMA/MMIO raises until
        :meth:`recover` is called."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def _check_alive(self, operation: str) -> None:
        """Raise for ``operation`` on a removed PF.  The DMA and MMIO
        paths test ``alive`` inline and call this only to raise."""
        if not self.alive:
            raise DeviceGoneError(
                f"{operation} on removed PF {self.name} "
                f"(node {self.attach_node})")

    # ------------------------------------------------------------- DMA

    def dma_write(self, region, nbytes: int, nbursts: int = 1) -> int:
        """Device -> memory write through this PF; returns delay ns.

        ``nbursts > 1`` (an adaptive train) charges the PCIe link
        and the memory system per burst — ``nbytes`` is the total — so
        the DDIO absorb nonlinearity and per-burst rounding match the
        exact path's burst-by-burst execution.
        """
        if not self.alive:
            self._check_alive("dma_write")
        if nbursts == 1:
            # self.link.upstream.account(nbytes), inline (hot path).
            if nbytes < 0:
                raise ValueError(f"negative transfer size {nbytes}")
            server = self.link.upstream
            now = server.env._now
            free_at = server._free_at
            start = free_at if free_at > now else now
            try:
                duration = server._service[nbytes]
            except KeyError:
                duration = server._memoise(nbytes)
            server._free_at = start + duration
            server._busy_ns += duration
            server._bytes_total += nbytes
            pcie_delay = (start - now) + duration
        else:
            per_burst, remainder = divmod(nbytes, nbursts)
            if remainder:
                pcie_delay = self.link.upstream.account(nbytes)
            else:
                pcie_delay = self.link.upstream.account_batch(per_burst,
                                                              nbursts)
        mem_delay = self._memory.dma_write(self.attach_node, region,
                                           nbytes, self, nbursts)
        return mem_delay if mem_delay > pcie_delay else pcie_delay

    def dma_read(self, region, nbytes: int) -> int:
        """Memory -> device read through this PF; returns delay ns."""
        if not self.alive:
            self._check_alive("dma_read")
        # self.link.downstream.account(nbytes), inline (hot path).
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        server = self.link.downstream
        now = server.env._now
        free_at = server._free_at
        start = free_at if free_at > now else now
        try:
            duration = server._service[nbytes]
        except KeyError:
            duration = server._memoise(nbytes)
        server._free_at = start + duration
        server._busy_ns += duration
        server._bytes_total += nbytes
        pcie_delay = (start - now) + duration
        mem_delay = self._memory.dma_read(self.attach_node, region,
                                          nbytes, self)
        return mem_delay if mem_delay > pcie_delay else pcie_delay

    # ------------------------------------------------------------- MMIO

    def mmio_latency(self, from_node: int) -> int:
        """Latency of a posted MMIO write (doorbell) from a core.

        Crossing the interconnect to reach a remote PF is one of the
        nonuniform I/O interactions Fig 1 depicts.
        """
        if not self.alive:
            self._check_alive("mmio")
        latency = self._half_rtt
        if from_node != self.attach_node:
            latency += self._qpi[from_node][
                self.attach_node].posted_crossing_ns(8)
        return latency

    def interrupt_latency(self, to_node: int) -> int:
        """Latency for an MSI-X message to reach a core on ``to_node``."""
        if not self.alive:
            self._check_alive("interrupt")
        latency = self._half_rtt
        if to_node != self.attach_node:
            latency += self._qpi[self.attach_node][
                to_node].posted_crossing_ns(8)
        return latency

    def is_local_to(self, node: int) -> bool:
        return self.attach_node == node

    def __repr__(self) -> str:
        state = "" if self.alive else " dead"
        return (f"<PF {self.name} node={self.attach_node} "
                f"x{self.link.lanes}{state}>")


def bifurcate(machine: Machine, total_lanes: int,
              attach_nodes: List[int], name: str = "dev") -> (
                  List[PhysicalFunction]):
    """Split ``total_lanes`` evenly into one PF per attach node (§3.2).

    A 16-lane card bifurcated across two sockets yields two x8 endpoints —
    exactly the ConnectX-5 Socket Direct arrangement the prototype uses
    (§4.1).
    """
    if not attach_nodes:
        raise ValueError("bifurcate needs at least one attach node")
    if total_lanes % len(attach_nodes) != 0:
        raise ValueError(
            f"{total_lanes} lanes do not split evenly across "
            f"{len(attach_nodes)} endpoints")
    lanes_each = total_lanes // len(attach_nodes)
    return [PhysicalFunction(machine, pf_id, node, lanes_each,
                             name=f"{name}.pf{pf_id}")
            for pf_id, node in enumerate(attach_nodes)]

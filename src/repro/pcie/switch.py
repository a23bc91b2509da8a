"""Programmable PCIe switch (§3.2, "Programmable PCIe Switching").

The paper weighs three ways to give one device a presence on every
socket: PCIe extenders/bifurcation, motherboard hard-wiring, and an
onboard programmable switch.  The switch is the flexible option — devices
can be re-attached at runtime and peer-to-peer DMA becomes possible — but
it "adds latency to individual operations, consumes more power and
requires more lanes".  This module models that trade so the ablation
benches can quantify it.
"""

from __future__ import annotations

from typing import List

from repro.pcie.fabric import PhysicalFunction
from repro.topology.machine import Machine

#: Store-and-forward latency a packet pays per switch hop.
SWITCH_HOP_NS = 150
#: Idle power of a PCIe switch ASIC vs. ~0 for passive bifurcation.
SWITCH_POWER_W = 25.0


class SwitchedFunction(PhysicalFunction):
    """A PF reached through the programmable switch.

    Identical to a directly-attached PF except every DMA/MMIO pays the
    switch's hop latency, and its attachment node can be changed at
    runtime (``reattach``) without touching cables or riser cards.
    """

    def __init__(self, machine: Machine, pf_id: int, attach_node: int,
                 lanes: int, name: str = "",
                 hop_ns: int = SWITCH_HOP_NS):
        super().__init__(machine, pf_id, attach_node, lanes, name=name)
        self.hop_ns = int(hop_ns)
        self.reattach_count = 0

    def dma_write(self, region, nbytes: int, nbursts: int = 1) -> int:
        return self.hop_ns + super().dma_write(region, nbytes,
                                               nbursts=nbursts)

    def dma_read(self, region, nbytes: int) -> int:
        return self.hop_ns + super().dma_read(region, nbytes)

    def mmio_latency(self, from_node: int) -> int:
        return self.hop_ns + super().mmio_latency(from_node)

    def interrupt_latency(self, to_node: int) -> int:
        return self.hop_ns + super().interrupt_latency(to_node)

    def reattach(self, node: int) -> None:
        """Re-route this endpoint to another socket — the flexibility a
        fixed bifurcation cannot offer."""
        self._check_alive("reattach")
        if not 0 <= node < self.machine.spec.num_nodes:
            raise ValueError(f"node {node} out of range")
        if node != self.attach_node:
            self.attach_node = node
            self.reattach_count += 1


class PcieSwitch:
    """An onboard switch connecting device ports to every socket."""

    def __init__(self, machine: Machine, hop_ns: int = SWITCH_HOP_NS):
        self.machine = machine
        self.hop_ns = int(hop_ns)
        self.functions: List[SwitchedFunction] = []
        self._next_pf_id = 0

    def attach(self, node: int, lanes: int,
               name: str = "") -> SwitchedFunction:
        pf = SwitchedFunction(self.machine, self._next_pf_id, node, lanes,
                              name=name or f"sw.pf{self._next_pf_id}",
                              hop_ns=self.hop_ns)
        self._next_pf_id += 1
        self.functions.append(pf)
        return pf

    def attach_per_node(self, lanes_each: int,
                        name: str = "dev") -> List[SwitchedFunction]:
        """One endpoint per socket — the switched octoNIC arrangement."""
        return [self.attach(node, lanes_each, name=f"{name}.pf{node}")
                for node in range(self.machine.spec.num_nodes)]

    def peer_to_peer(self, src: SwitchedFunction, dst: SwitchedFunction,
                     nbytes: int) -> int:
        """Device-to-device DMA through the switch, never touching DRAM
        or the CPU interconnect (the switch's unique capability, §3.2)."""
        if src not in self.functions or dst not in self.functions:
            raise ValueError("both endpoints must hang off this switch")
        src._check_alive("peer_to_peer")
        dst._check_alive("peer_to_peer")
        up = src.link.upstream.account(nbytes)
        down = dst.link.downstream.account(nbytes)
        return 2 * self.hop_ns + max(up, down)

    @property
    def power_watts(self) -> float:
        return SWITCH_POWER_W

    def lanes_required(self) -> int:
        """A switch needs host-side lanes to every socket *plus* the
        device-side lanes — the paper's "requires more lanes" drawback."""
        device_side = sum(pf.link.lanes for pf in self.functions)
        host_side = self.machine.spec.num_nodes * max(
            (pf.link.lanes for pf in self.functions), default=0)
        return device_side + host_side

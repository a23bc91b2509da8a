"""The NIC device: PFs + firmware + port, with per-PF accounting.

One :class:`NicDevice` models either configuration of the paper's server
NIC: loaded with :class:`~repro.nic.firmware.StandardFirmware` it behaves
as two independent netdevs (one per PF); loaded with
:class:`~repro.nic.firmware.OctoFirmware` it is the octoNIC (Fig 4): one
port, one MAC, and an IOctoRFS steering switch in front of the PFs.

PF bookkeeping and the hot-unplug/replug notification fan-out come from
the generic :class:`~repro.device.base.MultiPfDevice`; this class adds
the packet personality — firmware steering, the wire, and the Rx/Tx
DMA pipelines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.device.base import MultiPfDevice
from repro.memory.region import Region
from repro.nic.firmware import BaseFirmware, OctoFirmware
from repro.nic.packet import Flow
from repro.nic.rings import RxQueue, TxQueue
from repro.nic.wire import EthernetWire
from repro.pcie.fabric import PhysicalFunction
from repro.units import CACHELINE

#: NIC pipeline cost per packet (ConnectX-class NICs forward >100 Mpps).
PIPELINE_NS_PER_PKT = 6


class NicDevice(MultiPfDevice):
    """A (possibly multi-PF) Ethernet NIC."""

    kind = "nic"

    def __init__(self, machine, pfs: List[PhysicalFunction],
                 firmware: BaseFirmware, wire: Optional[EthernetWire] = None,
                 wire_side: str = "b", name: str = "nic"):
        if not pfs:
            raise ValueError("a NIC needs at least one PF")
        if firmware.num_pfs != len(pfs):
            raise ValueError(
                f"firmware expects {firmware.num_pfs} PFs, device has "
                f"{len(pfs)}")
        if wire_side not in ("a", "b"):
            raise ValueError(f"wire_side must be 'a' or 'b', got {wire_side}")
        super().__init__(machine, pfs, name)
        self.firmware = firmware
        self.wire = wire
        self.wire_side = wire_side
        #: Wire directions of this device's receive and transmit traffic.
        self._rx_direction = "a_to_b" if wire_side == "b" else "b_to_a"
        self._tx_direction = "b_to_a" if wire_side == "b" else "a_to_b"
        self._pf_rx_bytes: Dict[int, int] = {pf.pf_id: 0 for pf in pfs}
        self._pf_tx_bytes: Dict[int, int] = {pf.pf_id: 0 for pf in pfs}

    # ------------------------------------------------------------ helpers

    def mac_for_pf(self, pf_id: int) -> str:
        if isinstance(self.firmware, OctoFirmware):
            return OctoFirmware.MAC
        return self.firmware.macs[pf_id]

    # ------------------------------------------------------- fault model

    def _pf_failed(self, pf_id: int) -> None:
        self.firmware.fail_pf(pf_id)

    def _pf_recovered(self, pf_id: int) -> None:
        self.firmware.recover_pf(pf_id)

    # ----------------------------------------------------------- receive

    def rx_deliver(self, flow: Flow, dst_mac: str, npackets: int,
                   payload_bytes: int, charge_wire: bool = True,
                   nbursts: int = 1) -> Tuple[RxQueue, int]:
        """A packet batch arrives from the wire.

        The firmware steers it to a (PF, Rx queue); the device DMA-writes
        payloads into the queue's buffer region and one completion entry
        per packet into its ring.  Returns the queue and the device-side
        delay until the last completion is visible.

        ``nbursts > 1`` marks the batch as that many back-to-back wire
        bursts (an adaptive train): the payload/ring DMA is charged
        per burst so DDIO absorption matches burst-by-burst execution.
        """
        if npackets < 1:
            raise ValueError(f"npackets must be >= 1, got {npackets}")
        if payload_bytes < 1:
            raise ValueError(
                f"payload_bytes must be >= 1, got {payload_bytes}")
        pf_id, queue = self.firmware.steer_rx(flow, dst_mac,
                                              self.machine.env._now)
        pf = self.pfs[pf_id]

        # Wire reception and DMA pipeline inside the NIC: a batch's wall
        # time is the slower of the two stages plus the pipeline cost.
        wire_delay = 0
        if charge_wire and self.wire is not None:
            wire_delay = self.wire.send(self._rx_direction, npackets,
                                        payload_bytes)

        payload_total = npackets * payload_bytes
        # Sequential transfers on one PCIe link queue behind each other,
        # so the later account() already includes the earlier's service:
        # the batch completes with the completion-ring write.
        buf_delay = pf.dma_write(queue.buffers, payload_total,
                                 nbursts=nbursts)
        ring_delay = pf.dma_write(queue.ring, npackets * CACHELINE,
                                  nbursts=nbursts)
        dma_delay = max(buf_delay, ring_delay)
        delay = npackets * PIPELINE_NS_PER_PKT + max(wire_delay, dma_delay)

        flow_trace = self.machine.tracer.active_flow
        if flow_trace is not None:
            pipeline = npackets * PIPELINE_NS_PER_PKT
            dma_stage = None
            dma_blame = None
            if self.machine.tracer.blame is not None:
                loc = "local" if pf.is_local_to(queue.node_id) else "qpi"
                dma_stage = f"dma.{loc}"
                # Wire and DMA overlap inside the pipeline: the wire
                # stage owns its full transit, the DMA stage owns the
                # pipeline plus whatever DMA time the wire did not hide,
                # so the two charges sum to the returned delay exactly.
                dma_blame = pipeline + max(0, dma_delay - wire_delay)
            flow_trace.step("wire", "wire.rx", wire_delay,
                            {"packets": npackets, "bytes": payload_total},
                            stage="wire")
            flow_trace.step(f"{self.name}.{pf.name}", "dma.rx",
                            pipeline + dma_delay,
                            {"buf_ns": buf_delay, "ring_ns": ring_delay},
                            stage=dma_stage, blame_ns=dma_blame)

        queue.outstanding += npackets
        if queue.outstanding > queue.outstanding_hwm:
            queue.outstanding_hwm = queue.outstanding
        queue.account(npackets, payload_total)
        self._pf_rx_bytes[pf_id] += payload_total
        return queue, delay

    # ---------------------------------------------------------- transmit

    def tx(self, queue: TxQueue, src_region: Region, npackets: int,
           payload_bytes: int, ndesc: Optional[int] = None,
           nbursts: int = 1) -> int:
        """Transmit a batch posted on ``queue``.

        The device DMA-reads the descriptors and payload through the
        queue's PF, puts the packets on the wire, and DMA-writes one
        completion per descriptor back into the ring.  Returns the
        device-side delay.  ``nbursts > 1`` charges the completion
        write-back per burst (an adaptive train).
        """
        if queue.pf is None:
            raise ValueError(f"{queue!r} is not bound to a PF")
        if npackets < 1:
            raise ValueError(f"npackets must be >= 1, got {npackets}")
        if payload_bytes < 1:
            raise ValueError(
                f"payload_bytes must be >= 1, got {payload_bytes}")
        pf = queue.pf
        ndesc = ndesc if ndesc is not None else npackets
        payload_total = npackets * payload_bytes

        # Descriptor fetch + payload DMA pipeline against the wire; the
        # payload read queues behind the descriptor fetch on the link.
        desc_delay = pf.dma_read(queue.ring, ndesc * CACHELINE)
        payload_delay = pf.dma_read(src_region, payload_total)
        dma_delay = max(desc_delay, payload_delay)
        wire_delay = 0
        if self.wire is not None:
            wire_delay = self.wire.send(self._tx_direction, npackets,
                                        payload_bytes)
        # Completion write-back pipelines with the payload DMA; it is the
        # entry whose read costs the CPU ~80 ns when the PF is remote
        # (§5.1.1, pktgen analysis).
        completion_delay = pf.dma_write(queue.ring, ndesc * CACHELINE,
                                        nbursts=nbursts)
        delay = (npackets * PIPELINE_NS_PER_PKT
                 + max(wire_delay, dma_delay, completion_delay))

        flow_trace = self.machine.tracer.active_flow
        if flow_trace is not None:
            pipeline = npackets * PIPELINE_NS_PER_PKT
            dma_stage = None
            dma_blame = None
            wire_blame = None
            if self.machine.tracer.blame is not None:
                loc = "local" if pf.is_local_to(queue.node_id) else "qpi"
                dma_stage = f"dma.{loc}"
                # Descriptor/payload DMA, the completion write-back and
                # the wire all overlap: the DMA stage owns pipeline +
                # its own time + the completion residual beyond
                # max(wire, dma); the wire stage owns what the DMA did
                # not hide.  Charges sum to the returned delay exactly.
                slowest = max(wire_delay, dma_delay, completion_delay)
                dma_blame = (pipeline + dma_delay
                             + slowest - max(wire_delay, dma_delay))
                wire_blame = max(0, wire_delay - dma_delay)
            flow_trace.step(f"{self.name}.{pf.name}", "dma.tx",
                            pipeline + dma_delay,
                            {"desc_ns": desc_delay,
                             "payload_ns": payload_delay},
                            stage=dma_stage, blame_ns=dma_blame)
            flow_trace.step("wire", "wire.tx", wire_delay,
                            {"packets": npackets, "bytes": payload_total},
                            stage="wire", blame_ns=wire_blame)

        # TX posting is synchronous, so ring residency peaks at the batch
        # itself; record it so the depth HWM is meaningful for tx queues.
        if ndesc > queue.outstanding_hwm:
            queue.outstanding_hwm = ndesc
        queue.account(npackets, payload_total)
        self._pf_tx_bytes[pf.pf_id] += payload_total
        return delay

    # -------------------------------------------------------- accounting

    def pf_rx_bytes(self, pf_id: int) -> int:
        return self._pf_rx_bytes[pf_id]

    def pf_tx_bytes(self, pf_id: int) -> int:
        return self._pf_tx_bytes[pf_id]

    def __repr__(self) -> str:
        return (f"<NicDevice {self.name} firmware={self.firmware.name} "
                f"pfs={[pf.attach_node for pf in self.pfs]}>")

"""pktgen: the in-kernel packet generator (§5.1.1, Fig 8).

pktgen repeatedly transmits the *same* packet without touching its data,
so the per-packet cost is dominated by descriptor/doorbell work plus the
completion-entry read — an LLC hit with a local PF (DDIO), a ~80 ns DRAM
miss with a remote one.  That single miss is the paper's entire 4.1 vs
3.08 Mpps story, and it emerges here from the memory system.
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.base import Workload, measured_meter
from repro.workloads.train import TrainGovernor, burst_loop

#: pktgen posts descriptors in bursts of this many packets.
BURST_PKTS = 64
#: Smallest packet pktgen sends, in bytes.
MIN_PACKET_BYTES = 20


class Pktgen(Workload):
    """Single-core pktgen transmit loop."""

    def __init__(self, host, core, packet_bytes: int, duration_ns: int,
                 warmup_ns: int = 0,
                 ring_home_node: int = None,
                 governor: Optional[TrainGovernor] = None):
        super().__init__(host, duration_ns, warmup_ns)
        if packet_bytes < MIN_PACKET_BYTES:
            raise ValueError(f"packet too small: {packet_bytes} bytes "
                             f"(minimum {MIN_PACKET_BYTES})")
        self.core = core
        self.packet_bytes = packet_bytes
        self.driver = host.driver
        self.meter = measured_meter(self)
        self._ring_home_node = ring_home_node
        #: Sizes the packet trains; None runs one event per burst.
        #: Tests read its counters.
        self.governor = governor
        self.thread = self._spawn("pktgen", self._body, core)

    def _body(self, thread):
        machine = self.host.machine
        costs = machine.spec.software
        txq = self.driver.tx_queue_for_core(thread.core)
        if self._ring_home_node is not None:
            # §2.4 experiment: place the completion ring on a chosen node
            # (e.g. local to the NIC, remote to the CPU) to probe whether
            # remote DDIO-like placement helps.
            txq.ring = machine.alloc_region(
                "pktgen-ring", self._ring_home_node, txq.ring.size)
        node = thread.core.node_id
        device = self.driver.device
        wire = device.wire
        env = self.env
        packet_bytes = self.packet_bytes

        # pktgen transmits the SAME packet over and over: a tiny buffer
        # that stays pinned in the LLC (and is never touched per send).
        packet = machine.alloc_region("pktgen-pkt", node, packet_bytes)
        machine.memory.cpu_stream_write(node, packet, packet_bytes)

        def burst(k):
            """k identical bursts: every cost is the per-burst charge
            scaled by k (the model layer is closed-form in the packet
            count), so a train is numerically the sum of k bursts; only
            the event count — and the doorbell/propagation amortisation
            the paper's drivers also batch away — changes."""
            pkts = k * BURST_PKTS
            tracer = machine.tracer
            bflow = (tracer.begin_blame(env._now)
                     if tracer.blame is not None else None)
            stack = pkts * costs.pktgen_pkt_ns
            door = k * txq.pf.mmio_latency(node)  # doorbell per burst
            cpu = stack + door
            dev = device.tx(txq, packet, pkts, packet_bytes, ndesc=pkts,
                            nbursts=k)
            cq = pkts * machine.memory.read_fresh_dma_line(node, txq.ring)
            cpu += cq
            if bflow is not None:
                # Loop CPU work, the doorbell MMIO and the completion-
                # entry reads; the device DMA/wire stages were charged
                # inside device.tx.
                bflow.charge("stack", stack)
                loc = "local" if txq.pf.is_local_to(node) else "qpi"
                bflow.charge(f"doorbell.{loc}", door)
                tag = machine.memory.dma_read_class(node, txq.ring)
                bflow.charge("cq.hit" if tag == "ddio_hit" else "cq.miss",
                             cq)
                bflow.seal(cpu + dev, represented=k)
            return cpu, dev

        def token():
            return (thread.core, txq, txq.pf, txq.pf.alive,
                    device.firmware.steering_epoch(),
                    wire.is_impaired if wire is not None else False)

        yield from burst_loop(
            self, thread, burst, BURST_PKTS * packet_bytes, BURST_PKTS,
            token, lambda: txq.descriptors_until_wrap() // BURST_PKTS)

    def throughput_gbps(self) -> float:
        return self.meter.gbps()

    def mpps(self) -> float:
        return self.meter.mpps()

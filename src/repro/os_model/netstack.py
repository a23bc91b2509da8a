"""The network stack: sockets, XPS, ARFS callbacks, and the data paths.

The stack mirrors the Linux mechanisms the paper builds on (§2.3):

* **XPS** — each socket transmits through the Tx queue of the core its
  owner currently runs on; after a migration the socket is re-pointed as
  soon as the old queue signals ``ooo_okay``.
* **ARFS** — on migration, the stack invokes the driver's steering
  callback so arriving packets land on the new core's Rx queue (and, for
  the octoNIC driver, on the new node's PF).

Two kinds of data-path APIs exist:

* ``*_burst`` — steady-state throughput: returns (cpu_ns, dev_ns) for a
  batch; callers overlap them (``thread.overlap``) because CPU and device
  pipeline against each other.
* ``latency_*`` — a single message's critical path: returns the **sum** of
  every component (interrupt, wakeup, fills, wire), used by the RR and
  sockperf experiments where coalescing is disabled (§5.1.2).
"""

from __future__ import annotations

from typing import Dict, List

from repro.nic.packet import Flow, packets_for
from repro.os_model.driver import NetDriver
from repro.os_model.scheduler import Scheduler
from repro.os_model.thread import SimThread
from repro.topology.machine import Machine
from repro.units import KB, TSO_SEGMENT

#: TCP maximum segment size with a 1500 B MTU.
MSS = 1448
#: Packets per interrupt under Linux adaptive coalescing (streaming).
COALESCE_PKTS = 64


def _ring_lag(queue) -> int:
    """How far (in bytes) the consumer lags the DMA producer under
    streaming load: half the Rx ring's buffer capacity (deep rings run
    near-full when the CPU is the bottleneck)."""
    return queue.buffers.size // 2


class Socket:
    """A connected socket owned by one thread."""

    def __init__(self, stack: "NetworkStack", thread: SimThread,
                 driver: NetDriver, flow: Flow, app_buffer_bytes: int):
        self.stack = stack
        self.owner = thread
        self.driver = driver
        self.flow = flow
        self.dst_mac = driver.dst_mac()
        self.app_buffer = stack.machine.alloc_region(
            f"app-{flow.src_port}", thread.core.node_id, app_buffer_bytes)
        self.tx_queue = driver.tx_queue_for_core(thread.core)
        self.closed = False
        self.rx_messages = 0
        self.tx_messages = 0
        #: Payload bytes this socket received/sent (app-level ledger;
        #: invariant checks conserve these against the NIC queue ledgers).
        self.rx_payload_bytes = 0
        self.tx_payload_bytes = 0

    def __repr__(self) -> str:
        return f"<Socket {self.flow.src_port}->{self.flow.dst_port}>"


class NetworkStack:
    """One machine's network stack."""

    def __init__(self, machine: Machine, scheduler: Scheduler):
        self.machine = machine
        self.scheduler = scheduler
        self.costs = machine.spec.software
        self.memory = machine.memory
        #: ARFS migration callbacks (the ``arfs_migration`` component):
        #: off, a migrated thread's flows keep landing on the old core's
        #: Rx queue — the pre-ARFS Linux behaviour.
        self.arfs_enabled = True
        #: XPS re-pointing (the ``xps`` component): off, sockets keep
        #: transmitting through the queue of the core they started on.
        self.xps_enabled = True
        self._sockets_by_thread: Dict[SimThread, List[Socket]] = {}
        #: Every socket ever opened on this stack, closed ones included
        #: (the fuzz invariants sum per-socket ledgers over the full run).
        self.sockets: List[Socket] = []
        scheduler.on_migration(self._on_migration)

    # ------------------------------------------------------------ sockets

    def open_socket(self, thread: SimThread, driver: NetDriver, flow: Flow,
                    app_buffer_bytes: int = 64 * KB) -> Socket:
        sock = Socket(self, thread, driver, flow, app_buffer_bytes)
        driver.steer_rx(flow, thread.core, immediate=True)
        self._sockets_by_thread.setdefault(thread, []).append(sock)
        self.sockets.append(sock)
        return sock

    def close(self, sock: Socket) -> None:
        sock.closed = True
        owned = self._sockets_by_thread.get(sock.owner, [])
        if sock in owned:
            owned.remove(sock)

    def _on_migration(self, thread: SimThread, old_core, new_core) -> None:
        for sock in self._sockets_by_thread.get(thread, []):
            # Rx: deferred-until-drained ARFS (and IOctoRFS) update.
            if self.arfs_enabled:
                sock.driver.steer_rx(sock.flow, new_core)
            # Tx: XPS re-points the socket once ooo_okay allows it.
            if self.xps_enabled and (sock.tx_queue.ooo_okay
                                     or sock.tx_queue.is_drained()):
                sock.tx_queue = sock.driver.tx_queue_for_core(new_core)
            # The app buffer stays where it was allocated (first-touch);
            # only cache residency migrates, which the LLC model handles.

    # ----------------------------------------------- steady-state fast path

    def steady_token(self, sock: Socket) -> tuple:
        """Fingerprint of every steering/steady-state input a burst on
        ``sock`` depends on.  While two consecutive bursts see the same
        token, a coalesced train is exact up to linearity: same core, same
        queues, same serving PFs (and both alive), same firmware steering
        epoch, same interrupt-moderation budgets, no wire impairment.
        Any change is a de-coalescing boundary for the train governor."""
        thread = sock.owner
        driver = sock.driver
        rxq = driver.rx_queue_for_core(thread.core)
        txq = sock.tx_queue
        device = driver.device
        wire = device.wire
        return (thread.core, rxq, txq, rxq.pf, txq.pf,
                rxq.pf.alive, txq.pf.alive,
                device.firmware.steering_epoch(),
                rxq.moderation.current_budget(),
                txq.moderation.current_budget(),
                wire.is_impaired if wire is not None else False)

    # ------------------------------------------------- throughput: receive

    def rx_burst(self, sock: Socket, nmessages: int,
                 message_bytes: int, ntrains: int = 1) -> tuple:
        """Receive ``nmessages`` messages; returns (cpu_ns, dev_ns).

        ``ntrains > 1`` coalesces that many identical back-to-back bursts
        into one call (a packet train): every count is the per-burst
        value scaled by ``ntrains`` — preserving the per-burst quantisation
        of packets-per-message and interrupts — so the charge equals the
        sum of ``ntrains`` individual calls wherever the model is linear.
        """
        if nmessages < 1:
            raise ValueError(f"nmessages must be >= 1, got {nmessages}")
        if ntrains < 1:
            raise ValueError(f"ntrains must be >= 1, got {ntrains}")
        thread = sock.owner
        node = thread.core.node_id
        pkts_per_msg = packets_for(message_bytes, MSS)
        burst_packets = nmessages * pkts_per_msg
        npackets = burst_packets * ntrains
        total_messages = nmessages * ntrains
        payload = max(1, min(message_bytes, MSS))

        # Under streaming load the ring runs deep: the batch the CPU
        # processes now was DMA-written a full burst earlier, so its cache
        # state is whatever survived the interleaving traffic.  We charge
        # the CPU costs against the queue's *pre-delivery* state, then
        # deliver the next batch — which is what lets many queues' working
        # sets thrash the LLC in the multi-core experiment (§5.1.1) while
        # a single queue stays DDIO-hot.
        queue = sock.driver.rx_queue_for_core(thread.core)
        total_bytes = npackets * payload
        # Blame-only interval (no trace records): the shared paths below
        # contribute their stage charges while it is active.
        now = self.machine.env._now
        tracer = self.machine.tracer
        bflow = (tracer.begin_blame(now) if tracer.blame is not None
                 else None)
        cpu = sock.driver.completion.interrupt(queue, burst_packets,
                                               ntrains, now)
        stack = (npackets * self.costs.rx_pkt_ns
                 + total_messages * self.costs.syscall_ns)
        cpu += stack
        # Completion-descriptor reads: hit (DDIO) or ~80 ns miss each.
        cpu += sock.driver.completion.consume(queue, npackets, node)
        # Payload copy to userspace: source freshness decided by DMA path.
        copy = int(total_bytes * self.costs.copy_ns_per_byte)
        fresh = self.memory.cpu_read_fresh_dma(node, queue.buffers,
                                               total_bytes,
                                               inflight_bytes=_ring_lag(queue))
        copy += self.memory.cpu_stream_write(node, sock.app_buffer,
                                             total_bytes)
        cpu += copy + fresh

        delivered, dev_ns = sock.driver.device.rx_deliver(
            sock.flow, sock.dst_mac, npackets, payload, nbursts=ntrains)
        delivered.outstanding = max(0, delivered.outstanding - npackets)
        if bflow is not None:
            bflow.charge("stack", stack)
            bflow.charge("app", copy)
            bflow.charge("mem.miss", fresh)
            bflow.seal(cpu + dev_ns, represented=ntrains)
        sock.rx_messages += total_messages
        sock.rx_payload_bytes += total_bytes
        return cpu, dev_ns

    # ------------------------------------------------ throughput: transmit

    def tx_burst(self, sock: Socket, nmessages: int, message_bytes: int,
                 ntrains: int = 1) -> tuple:
        """Transmit ``nmessages`` messages; returns (cpu_ns, dev_ns).

        ``ntrains`` coalesces identical back-to-back bursts exactly as in
        :meth:`rx_burst`; per-burst quantisation (TSO descriptor count,
        ACK ratio, doorbell per burst) is preserved by scaling the
        per-burst values rather than recomputing from the train total.
        """
        if nmessages < 1:
            raise ValueError(f"nmessages must be >= 1, got {nmessages}")
        if ntrains < 1:
            raise ValueError(f"ntrains must be >= 1, got {ntrains}")
        thread = sock.owner
        node = thread.core.node_id
        txq = sock.tx_queue
        pkts_per_msg = packets_for(message_bytes, MSS)
        burst_packets = nmessages * pkts_per_msg
        npackets = burst_packets * ntrains
        total_messages = nmessages * ntrains
        payload = max(1, min(message_bytes, MSS))
        total_bytes = npackets * payload
        burst_desc = nmessages * max(1, -(-message_bytes // TSO_SEGMENT))
        ndesc = burst_desc * ntrains
        stack_cost = ndesc * self.costs.tx_segment_ns

        now = self.machine.env._now
        tracer = self.machine.tracer
        bflow = (tracer.begin_blame(now) if tracer.blame is not None
                 else None)
        kernel = total_messages * self.costs.syscall_ns + stack_cost
        cpu = kernel
        # Copy userspace -> kernel skbs.
        copy = int(total_bytes * self.costs.copy_ns_per_byte)
        copy += self.memory.cpu_stream_read(node, sock.app_buffer,
                                            total_bytes)
        copy += self.memory.cpu_stream_write(node, txq.skbs, total_bytes)
        cpu += copy
        # Doorbell per burst (crosses the interconnect if the PF is remote).
        cpu += sock.driver.doorbell.ring(txq, node, times=ntrains)

        dev_ns = sock.driver.device.tx(txq, txq.skbs, npackets, payload,
                                       ndesc=ndesc, nbursts=ntrains)
        # Completion reads (the pktgen-style ~80 ns-per-miss path).
        cpu += sock.driver.completion.consume(txq, ndesc, node)
        # Interrupt per completion batch.
        cpu += sock.driver.completion.interrupt(txq, burst_desc, ntrains,
                                                now)
        # Incoming TCP ACKs (~1 per 2 MSS, GRO-coalesced ~8:1).  They are
        # DMA-written like any Rx traffic, so their descriptor reads miss
        # when the serving PF is remote.
        nacks = (burst_packets // 16) * ntrains
        ack_stack = 0
        ack_residual = 0
        if nacks:
            rxq = sock.driver.rx_queue_for_core(thread.core)
            dev_ack = rxq.pf.dma_write(rxq.ring, nacks * 64,
                                       nbursts=ntrains)
            ack_stack = nacks * (self.costs.rx_pkt_ns // 2)
            cpu += ack_stack
            cpu += sock.driver.completion.consume(rxq, nacks, node)
            if dev_ack > dev_ns:
                # The ACK DMA outlasts the Tx pipeline: the overflow is
                # remote-PF DMA time on the device side.
                ack_residual = dev_ack - dev_ns
                if bflow is not None:
                    loc = ("local" if rxq.pf.is_local_to(node) else "qpi")
                    bflow.charge(f"dma.{loc}", ack_residual)
            dev_ns = max(dev_ns, dev_ack)
        if bflow is not None:
            bflow.charge("stack", kernel + ack_stack)
            bflow.charge("app", copy)
            bflow.seal(cpu + dev_ns, represented=ntrains)
        sock.tx_messages += total_messages
        sock.tx_payload_bytes += total_bytes
        return cpu, dev_ns

    # ------------------------------------------------------ latency paths

    def latency_rx(self, sock: Socket, message_bytes: int,
                   charge_wire: bool = True) -> int:
        """Critical-path ns from wire arrival to the app holding the data
        (coalescing disabled: one interrupt + one wakeup per message).

        Pass ``charge_wire=False`` when the sender's ``latency_tx`` already
        charged the wire for this message (request/response loops)."""
        thread = sock.owner
        node = thread.core.node_id
        # packets_for(message_bytes, MSS), inline.
        pkts = -(-message_bytes // MSS) if message_bytes > 0 else 1
        payload = max(1, min(message_bytes, MSS))
        # One flow per message: the device and completion path contribute
        # their steps (wire, DMA, CQ reads) while it is active.
        tracer = self.machine.tracer
        flow = (tracer.begin_flow(self.machine.env._now) if tracer.enabled
                else None)
        queue, dev_ns = sock.driver.device.rx_deliver(
            sock.flow, sock.dst_mac, pkts, payload, charge_wire=charge_wire)
        queue.outstanding = max(0, queue.outstanding - pkts)
        total = pkts * payload

        latency = dev_ns
        irq = (queue.pf.interrupt_latency(node)
               + self.costs.irq_ns + self.costs.wakeup_ns)
        stack = pkts * self.costs.rx_pkt_ns + self.costs.syscall_ns
        if flow is not None:
            irq_loc = "local" if queue.pf.is_local_to(node) else "qpi"
            flow.step(f"core{node}.irq", "irq.wakeup", irq,
                      stage=f"irq.{irq_loc}")
            flow.step(f"core{node}.stack", "stack.rx", stack,
                      {"packets": pkts}, stage="stack")
        latency += irq + stack
        latency += sock.driver.completion.consume(queue, pkts, node)
        # The packet head is a latency-bound demand load (header parse
        # cannot be prefetched); the remainder streams.
        head = self.memory.read_fresh_dma_line(node, queue.buffers)
        copy = int(total * self.costs.copy_ns_per_byte)
        copy += self.memory.cpu_stream_write(node, sock.app_buffer, total)
        fresh = self.memory.cpu_read_fresh_dma(node, queue.buffers, total)
        app = head + copy + fresh
        latency += app
        if flow is not None:
            # Payload freshness is its own stage: zero when DDIO kept
            # the data hot, the remote-DRAM/DDIO-miss cost otherwise.
            flow.finish(f"core{node}.app", "app.copy", app,
                        {"bytes": total},
                        stages={"mem.miss": head + fresh,
                                "app": copy})
            flow.seal(latency)
        sock.rx_messages += 1
        sock.rx_payload_bytes += total
        return latency

    def latency_tx(self, sock: Socket, message_bytes: int,
                   udp: bool = False) -> int:
        """Critical-path ns from send() to the last byte on the wire."""
        thread = sock.owner
        node = thread.core.node_id
        txq = sock.tx_queue
        # packets_for(message_bytes, MSS), inline.
        pkts = -(-message_bytes // MSS) if message_bytes > 0 else 1
        payload = max(1, min(message_bytes, MSS))
        total = pkts * payload
        per_pkt = self.costs.udp_pkt_ns if udp else self.costs.tx_pkt_ns

        tracer = self.machine.tracer
        flow = (tracer.begin_flow(self.machine.env._now) if tracer.enabled
                else None)
        kernel = self.costs.syscall_ns + pkts * per_pkt
        app = int(total * self.costs.copy_ns_per_byte)
        app += self.memory.cpu_stream_read(node, sock.app_buffer, total)
        app += self.memory.cpu_stream_write(node, txq.skbs, total)
        stack = kernel + app
        if flow is not None:
            flow.step(f"core{node}.app", "app.send", stack,
                      {"bytes": total},
                      stages={"stack": kernel, "app": app})
        latency = stack
        latency += sock.driver.doorbell.ring(txq, node)
        latency += sock.driver.device.tx(txq, txq.skbs, pkts, payload,
                                         ndesc=pkts)
        if flow is not None:
            flow.finish("wire", "tx.done", 0)
            flow.seal(latency)
        sock.tx_messages += 1
        sock.tx_payload_bytes += total
        return latency

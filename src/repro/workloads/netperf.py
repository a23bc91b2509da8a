"""netperf: TCP_STREAM (Rx and Tx) and TCP_RR (§5.1).

``TcpStream`` is the single-core throughput benchmark: the process and all
OS networking activity (interrupts included) run on one core.  ``TcpRr``
is the request/response latency benchmark with interrupt coalescing
disabled, run across the testbed's two machines.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.collect import LatencyRecorder
from repro.nic.packet import Flow, packets_for
from repro.os_model.netstack import MSS
from repro.units import KB
from repro.workloads.base import Workload, measured_meter
from repro.workloads.train import TrainGovernor, burst_loop

#: Default burst sizing: batch messages up to this many bytes per loop.
BURST_BYTES = 64 * KB


class TcpStream(Workload):
    """netperf TCP_STREAM, receive or transmit side on the server."""

    def __init__(self, host, core, flow: Flow, message_bytes: int,
                 direction: str, duration_ns: int, warmup_ns: int = 0,
                 driver=None, governor: Optional[TrainGovernor] = None):
        super().__init__(host, duration_ns, warmup_ns)
        if direction not in ("rx", "tx"):
            raise ValueError(f"direction must be 'rx' or 'tx', "
                             f"got {direction!r}")
        if message_bytes < 1:
            raise ValueError(f"message_bytes must be >= 1, "
                             f"got {message_bytes}")
        self.core = core
        self.flow = flow
        self.message_bytes = message_bytes
        self.direction = direction
        self.driver = driver or host.driver
        self.meter = measured_meter(self)
        self.batch = max(1, BURST_BYTES // message_bytes)
        #: Sizes the packet trains; None runs one event per burst.
        #: Tests read its counters.
        self.governor = governor
        self.thread = self._spawn(f"netperf-{direction}", self._body, core)

    def _body(self, thread):
        stack = self.host.stack
        sock = stack.open_socket(
            thread, self.driver, self.flow,
            app_buffer_bytes=max(64 * KB, self.message_bytes))
        rx = self.direction == "rx"
        stack_burst = stack.rx_burst if rx else stack.tx_burst
        batch = self.batch
        message_bytes = self.message_bytes
        burst_packets = batch * packets_for(message_bytes, MSS)

        def until_wrap():
            queue = (sock.driver.rx_queue_for_core(thread.core) if rx
                     else sock.tx_queue)
            return queue.descriptors_until_wrap() // burst_packets

        # The burst call scales every count by ``ntrains``, preserving
        # the per-burst quantisation, so a k-burst train charges exactly
        # what k individual bursts would.
        yield from burst_loop(
            self, thread,
            lambda k: stack_burst(sock, batch, message_bytes, ntrains=k),
            batch * message_bytes, batch,
            lambda: stack.steady_token(sock), until_wrap)

    def throughput_gbps(self) -> float:
        return self.meter.gbps()


class TcpRr(Workload):
    """netperf TCP_RR across the testbed: client <-> server round trips.

    The round-trip time is the sum of the four critical paths (client tx,
    server rx, server tx, client rx); the wire is charged once per
    direction.  Coalescing is disabled, as in §5.1.2.
    """

    def __init__(self, testbed, message_bytes: int, duration_ns: int,
                 warmup_ns: int = 0):
        if message_bytes < 1:
            raise ValueError(f"message_bytes must be >= 1, "
                             f"got {message_bytes}")
        super().__init__(testbed.client, duration_ns, warmup_ns)
        self.testbed = testbed
        self.message_bytes = message_bytes
        self.latencies = LatencyRecorder()

        server = testbed.server
        flow = Flow.make(1)

        # The server side of the connection is owned by an idle thread
        # pinned to the server's workload core; the client thread drives
        # the whole round trip.
        def server_body(thread):
            self._server_sock = server.stack.open_socket(
                thread, server.driver, flow.reversed(),
                app_buffer_bytes=max(64 * KB, message_bytes))
            if False:  # a generator that never runs again
                yield None

        self._server_thread = server.scheduler.spawn(
            "netperf-rr-server", server_body, core=testbed.server_core(0))

        self.thread = self._spawn("netperf-rr-client", self._client_body,
                                  testbed.client_core(0))

    def _client_body(self, thread):
        client = self.testbed.client
        server = self.testbed.server
        sock = client.stack.open_socket(
            thread, client.driver, Flow.make(1),
            app_buffer_bytes=max(64 * KB, self.message_bytes))
        msg = self.message_bytes
        while not self.done():
            rtt = client.stack.latency_tx(sock, msg)
            rtt += server.stack.latency_rx(self._server_sock, msg,
                                           charge_wire=False)
            rtt += server.stack.latency_tx(self._server_sock, msg)
            rtt += client.stack.latency_rx(sock, msg, charge_wire=False)
            if self.in_measurement():
                self.latencies.record(rtt)
            yield thread.sleep(rtt)

    def average_rtt_ns(self) -> float:
        return self.latencies.average()

    def p99_rtt_ns(self) -> int:
        return self.latencies.percentile(99)

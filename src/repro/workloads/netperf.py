"""netperf TCP_STREAM (Rx and Tx, §5.1) and the request/response
latency benchmarks: netperf TCP_RR (§5.1.2) and sockperf UDP ping-pong
(§5.2).

``TcpStream`` is the single-core throughput benchmark: the process and all
OS networking activity (interrupts included) run on one core.
``RequestResponse`` is the latency benchmark with interrupt coalescing
disabled, run across the testbed's two machines, over TCP or UDP.
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
                 governor: Optional[TrainGovernor] = None):
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
        self.driver = host.driver
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


#: What differs between the two request/response programs: the
#: client's flow, its socket buffer for a message size, and the program
#: the threads are named after.  UDP sends take the datagram path.
PROTOCOLS = {
    "tcp": (Flow.make(1), lambda message: max(64 * KB, message),
            "netperf-rr"),
    "udp": (Flow.make(2, protocol="udp"), lambda message: 4 * KB,
            "sockperf"),
}


class RequestResponse(Workload):
    """Round trips between the testbed's client and server: netperf
    TCP_RR (``protocol="tcp"``, §5.1.2) or sockperf UDP ping-pong
    (``"udp"``, §5.2).

    The round-trip time is the sum of the four critical paths (client tx,
    server rx, server tx, client rx); the wire is charged once per
    direction.  Coalescing is disabled, as in §5.1.2.
    """

    def __init__(self, testbed, message_bytes: int, duration_ns: int,
                 warmup_ns: int = 0, protocol: str = "tcp"):
        if protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {tuple(PROTOCOLS)}, "
                             f"got {protocol!r}")
        if message_bytes < 1:
            raise ValueError(f"message_bytes must be >= 1, "
                             f"got {message_bytes}")
        super().__init__(testbed.client, duration_ns, warmup_ns)
        self.testbed = testbed
        self.message_bytes = message_bytes
        self.latencies = LatencyRecorder()
        self.flow, buffer_for, program = PROTOCOLS[protocol]
        self.buffer_bytes = buffer_for(message_bytes)

        server = testbed.server

        # The server side of the connection is owned by an idle thread
        # pinned to the server's workload core; the client thread drives
        # the whole round trip.
        def server_body(thread):
            self._server_sock = server.stack.open_socket(
                thread, server.driver, self.flow.reversed(),
                app_buffer_bytes=self.buffer_bytes)
            if False:  # a generator that never runs again
                yield None

        self._server_thread = server.scheduler.spawn(
            f"{program}-server", server_body, core=testbed.server_core(0))

        self.thread = self._spawn(f"{program}-client", self._client_body,
                                  testbed.client_core(0))

    def _client_body(self, thread):
        client = self.testbed.client
        server = self.testbed.server
        sock = client.stack.open_socket(
            thread, client.driver, self.flow,
            app_buffer_bytes=self.buffer_bytes)
        msg = self.message_bytes
        udp = self.flow.protocol == "udp"
        while not self.done():
            rtt = client.stack.latency_tx(sock, msg, udp=udp)
            rtt += server.stack.latency_rx(self._server_sock, msg,
                                           charge_wire=False)
            rtt += server.stack.latency_tx(self._server_sock, msg, udp=udp)
            rtt += client.stack.latency_rx(sock, msg, charge_wire=False)
            if self.in_measurement():
                self.latencies.record(rtt)
            yield thread.sleep(rtt)

    def average_rtt_ns(self) -> float:
        return self.latencies.average()

"""sockperf: UDP ping-pong latency (§5.2, Fig 12).

64-byte UDP messages bounce between client and server while antagonists
load the interconnect; the remote configuration's round trip crosses the
loaded QPI on every DMA and so inflates with congestion.
"""

from __future__ import annotations

from repro.metrics.collect import LatencyRecorder
from repro.nic.packet import Flow
from repro.units import KB
from repro.workloads.base import Workload


class UdpPingPong(Workload):
    """sockperf ping-pong between the testbed's client and server."""

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
        flow = Flow.make(2, protocol="udp")

        def server_body(thread):
            self._server_sock = server.stack.open_socket(
                thread, server.driver, flow.reversed(),
                app_buffer_bytes=4 * KB)
            if False:
                yield None

        self._server_thread = server.scheduler.spawn(
            "sockperf-server", server_body, core=testbed.server_core(0))
        self.thread = self._spawn("sockperf-client", self._client_body,
                                  testbed.client_core(0))

    def _client_body(self, thread):
        client = self.testbed.client
        server = self.testbed.server
        sock = client.stack.open_socket(
            thread, client.driver, Flow.make(2, protocol="udp"),
            app_buffer_bytes=4 * KB)
        msg = self.message_bytes
        while not self.done():
            rtt = client.stack.latency_tx(sock, msg, udp=True)
            rtt += server.stack.latency_rx(self._server_sock, msg,
                                           charge_wire=False)
            rtt += server.stack.latency_tx(self._server_sock, msg, udp=True)
            rtt += client.stack.latency_rx(sock, msg, charge_wire=False)
            if self.in_measurement():
                self.latencies.record(rtt)
            yield thread.sleep(rtt)

    def average_rtt_ns(self) -> float:
        return self.latencies.average()

    def average_one_way_us(self) -> float:
        """sockperf reports one-way latency (RTT/2) in microseconds."""
        return self.latencies.average() / 2 / 1000.0

"""CPU interconnect (QPI/UPI) links.

A socket-to-socket interconnect is modelled as a pair of directional
:class:`~repro.sim.resources.BandwidthServer` channels plus a fixed crossing
latency.  Congestion is emergent: when STREAM antagonists saturate a
direction, every remote DMA or remote memory access that crosses it sees the
server's queueing delay, which is exactly the effect §5.2 of the paper
measures.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sim.engine import Environment
from repro.sim.resources import BandwidthServer, RateEstimator

#: Crossing latency grows as 1 + BETA * u / (1 - u) with utilisation u,
#: capped per-spec (an M/M/1-style waiting-time approximation for the
#: link's flit arbitration).
_BETA = 0.6


class InterconnectLink:
    """One directional aggregate channel between two sockets.

    Real machines have 2 QPI/UPI links between sockets; traffic is striped
    across them, so we aggregate them into a single byte server per
    direction with the summed bandwidth.
    """

    def __init__(self, env: Environment, src_node: int, dst_node: int,
                 bytes_per_sec: float, crossing_latency_ns: int,
                 max_latency_inflation: float = 12.0):
        self.env = env
        self.src_node = src_node
        self.dst_node = dst_node
        self.crossing_latency_ns = int(crossing_latency_ns)
        self.max_latency_inflation = float(max_latency_inflation)
        self.server = BandwidthServer(
            env, bytes_per_sec, name=f"qpi{src_node}->{dst_node}")
        self.estimator = RateEstimator(env, bytes_per_sec)
        self._base_bytes_per_sec = float(bytes_per_sec)
        self.throttle_factor = 1.0

    # -------------------------------------------------------- throttling

    def throttle(self, factor: float) -> None:
        """Clamp the link to ``factor`` of its rated bandwidth (thermal /
        fault throttling).  Crossings also see the matching latency
        inflation because the estimator's capacity shrinks with it."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"throttle factor must be in (0, 1], "
                             f"got {factor}")
        self.throttle_factor = float(factor)
        rate = self._base_bytes_per_sec * factor
        self.server.set_rate(rate)
        self.estimator.bytes_per_sec = rate

    def unthrottle(self) -> None:
        self.throttle(1.0)

    @property
    def is_throttled(self) -> bool:
        return self.throttle_factor < 1.0

    def load_factor(self) -> float:
        """Latency inflation multiplier for crossings (>= 1, capped)."""
        u = self.estimator.utilization()
        return min(self.max_latency_inflation,
                   1.0 + _BETA * u / max(1e-6, 1.0 - u))

    def loaded_crossing_ns(self) -> int:
        # load_factor() inlined (hot path; identical math — the
        # conditionals equal max() and min() bit-for-bit).
        u = self.estimator.utilization()
        idle = 1.0 - u
        inflation = 1.0 + _BETA * u / (idle if idle > 1e-6 else 1e-6)
        if inflation > self.max_latency_inflation:
            inflation = self.max_latency_inflation
        return int(self.crossing_latency_ns * inflation)

    def traverse(self, nbytes: int) -> int:
        """Charge a transfer; return its total delay (latency + queue +
        service) in ns."""
        u = self.estimator.update_utilization(nbytes)
        idle = 1.0 - u
        inflation = 1.0 + _BETA * u / (idle if idle > 1e-6 else 1e-6)
        if inflation > self.max_latency_inflation:
            inflation = self.max_latency_inflation
        return (int(self.crossing_latency_ns * inflation)
                + self.server.account(nbytes))

    def probe_delay(self, nbytes: int = 64) -> int:
        """Delay a transfer *would* see, without charging bandwidth.

        Used for latency estimates (e.g. deciding whether congestion makes
        remote placement worse) without perturbing the measurement.
        """
        return (self.crossing_latency_ns + self.server.queueing_delay()
                + self.server.service_time(nbytes))

    def utilization(self, since: int = 0) -> float:
        return self.server.utilization(since)


class Interconnect:
    """The full-socket interconnect: directional links between node pairs."""

    def __init__(self, env: Environment, num_nodes: int,
                 bytes_per_sec_per_direction: float,
                 crossing_latency_ns: int,
                 max_latency_inflation: float = 12.0):
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.env = env
        self.num_nodes = num_nodes
        self._links: Dict[Tuple[int, int], InterconnectLink] = {}
        for src in range(num_nodes):
            for dst in range(num_nodes):
                if src != dst:
                    self._links[(src, dst)] = InterconnectLink(
                        env, src, dst, bytes_per_sec_per_direction,
                        crossing_latency_ns, max_latency_inflation)

    def link(self, src_node: int, dst_node: int) -> InterconnectLink:
        try:
            return self._links[(src_node, dst_node)]
        except KeyError:
            raise KeyError(
                f"no interconnect link {src_node}->{dst_node} "
                f"(same node, or node out of range)") from None

    def traverse(self, src_node: int, dst_node: int, nbytes: int) -> int:
        """Charge a crossing src->dst; 0 ns if src == dst."""
        if src_node == dst_node:
            return 0
        try:
            link = self._links[(src_node, dst_node)]
        except KeyError:
            self.link(src_node, dst_node)  # raise with the friendly message
            raise
        return link.traverse(nbytes)

    def loaded_round_trip_ns(self, a: int, b: int) -> int:
        """Congestion-inflated latency of one a->b->a line round trip."""
        if a == b:
            return 0
        links = self._links
        try:
            return (links[(a, b)].loaded_crossing_ns()
                    + links[(b, a)].loaded_crossing_ns())
        except KeyError:
            self.link(a, b)          # re-raise with the friendly message
            raise

    def round_trip(self, src_node: int, dst_node: int,
                   request_bytes: int, response_bytes: int) -> int:
        """Charge a request/response pair (e.g. a remote cache-line fill:
        small request out, data back)."""
        if src_node == dst_node:
            return 0
        links = self._links
        try:
            out = links[(src_node, dst_node)].traverse(request_bytes)
            back = links[(dst_node, src_node)].traverse(response_bytes)
        except KeyError:
            self.link(src_node, dst_node)
            self.link(dst_node, src_node)
            raise
        return out + back

    def links(self):
        return list(self._links.values())

"""CPU interconnect (QPI/UPI) links.

A socket-to-socket interconnect is modelled as a pair of directional
:class:`~repro.sim.resources.BandwidthServer` channels plus a fixed crossing
latency.  Congestion is emergent: when STREAM antagonists saturate a
direction, every remote DMA or remote memory access that crosses it sees the
server's queueing delay, which is exactly the effect §5.2 of the paper
measures.

A link computes each inflated crossing once per instant.  A charge
(:meth:`InterconnectLink.traverse`, :meth:`InterconnectLink.posted_crossing_ns`)
keeps the crossing it just computed with the clock reading, and so does
a read (:meth:`InterconnectLink.loaded_crossing_ns`) that had to compute
one; a read returns the kept crossing while the clock has not moved,
since reading the bucket right after a charge gives the same value,
branch for branch.  A later charge replaces it and a rate change drops
it.  So the DMA engine's window and a latency-bound line fill, which
read both crossings of a round trip right after charging them, do not
recompute them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import Environment
from repro.sim.resources import LOAD_BUCKET_NS, BandwidthServer

#: Crossing latency grows as 1 + BETA * u / (1 - u) with utilisation u,
#: capped per-spec (an M/M/1-style waiting-time approximation for the
#: link's flit arbitration).
_BETA = 0.6


class InterconnectLink(BandwidthServer):
    """One directional aggregate channel between two sockets.

    Real machines have 2 QPI/UPI links between sockets; traffic is striped
    across them, so we aggregate them into a single byte server per
    direction with the summed bandwidth.

    Besides its byte queue the link keeps a load bucket
    (:data:`~repro.sim.resources.LOAD_BUCKET_NS` wide) that inflates the
    crossing latency.  Transfers, doorbells and interrupts charge it, and
    every crossing reads it; they do so inline, since each STREAM chunk
    crosses a link.
    """

    __slots__ = ("src_node", "dst_node", "crossing_latency_ns",
                 "max_latency_inflation", "bucket_ns", "_bucket_start",
                 "_bucket_bytes", "_last_utilization", "_base_bytes_per_sec",
                 "throttle_factor", "_crossing_at", "_crossing_ns")

    def __init__(self, env: Environment, src_node: int, dst_node: int,
                 bytes_per_sec: float, crossing_latency_ns: int,
                 max_latency_inflation: float = 12.0):
        super().__init__(env, bytes_per_sec,
                         name=f"qpi{src_node}->{dst_node}")
        self.src_node = src_node
        self.dst_node = dst_node
        self.crossing_latency_ns = int(crossing_latency_ns)
        self.max_latency_inflation = float(max_latency_inflation)
        self.bucket_ns = LOAD_BUCKET_NS
        self._bucket_start = 0
        self._bucket_bytes = 0
        self._last_utilization = 0.0   # the last completed bucket's load
        self._base_bytes_per_sec = float(bytes_per_sec)
        self.throttle_factor = 1.0
        self._crossing_at = -1         # the instant _crossing_ns holds,
        self._crossing_ns = 0          # or -1 when it holds none

    # -------------------------------------------------------- throttling

    def throttle(self, factor: float) -> None:
        """Clamp the link to ``factor`` of its rated bandwidth (thermal /
        fault throttling).  Crossings also see the matching latency
        inflation, because the load bucket is read against the same
        shrunken rate."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"throttle factor must be in (0, 1], "
                             f"got {factor}")
        self.throttle_factor = float(factor)
        self.set_rate(self._base_bytes_per_sec * factor)

    def unthrottle(self) -> None:
        self.throttle(1.0)

    def set_rate(self, bytes_per_sec: float) -> None:
        """Change the service rate (see
        :meth:`~repro.sim.resources.BandwidthServer.set_rate`); the load
        bucket now reads against the new rate, so the kept crossing is
        dropped."""
        super().set_rate(bytes_per_sec)
        self._crossing_at = -1

    @property
    def is_throttled(self) -> bool:
        return self.throttle_factor < 1.0

    # ----------------------------------------------------------- crossing

    def load_factor(self) -> float:
        """Latency inflation multiplier for crossings (>= 1, capped)."""
        elapsed = self.env._now - self._bucket_start
        if elapsed <= 0:
            u = self._last_utilization
        else:
            current = (self._bucket_bytes * 1e9
                       / (self.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            # Blend: the current bucket only counts once it has some
            # history, so a single burst at bucket start doesn't read as
            # saturation.
            weight = elapsed / self.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            u = (1.0 - weight) * self._last_utilization + weight * current
        return min(self.max_latency_inflation,
                   1.0 + _BETA * u / max(1e-6, 1.0 - u))

    def loaded_crossing_ns(self) -> int:
        """Congestion-inflated crossing latency, charging nothing.

        The crossing kept at this instant, else load_factor() inlined
        (hot path; identical math — the conditionals equal max() and
        min() bit-for-bit), kept for the rest of the instant.
        """
        now = self.env._now
        if now == self._crossing_at:
            return self._crossing_ns
        elapsed = now - self._bucket_start
        if elapsed <= 0:
            u = self._last_utilization
        else:
            current = (self._bucket_bytes * 1e9
                       / (self.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            weight = elapsed / self.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            u = (1.0 - weight) * self._last_utilization + weight * current
        idle = 1.0 - u
        inflation = 1.0 + _BETA * u / (idle if idle > 1e-6 else 1e-6)
        if inflation > self.max_latency_inflation:
            inflation = self.max_latency_inflation
        crossing = self._crossing_ns = int(self.crossing_latency_ns
                                           * inflation)
        self._crossing_at = now
        return crossing

    def posted_crossing_ns(self, nbytes: int) -> int:
        """Charge a posted message (a doorbell or an MSI-X write) to the
        load bucket; return the crossing latency inflated by the bucket's
        load after the charge.

        Only the bucket sees the message: it does not queue behind the
        byte server's backlog.
        """
        now = self.env._now
        elapsed = now - self._bucket_start
        if elapsed >= self.bucket_ns:
            u = (self._bucket_bytes * 1e9
                 / (self.bytes_per_sec * (elapsed if elapsed > 1 else 1)))
            u = u if u < 1.0 else 1.0
            self._last_utilization = u
            self._bucket_start = now
            self._bucket_bytes = nbytes
        else:
            bucket_bytes = self._bucket_bytes + nbytes
            self._bucket_bytes = bucket_bytes
            if elapsed <= 0:
                u = self._last_utilization
            else:
                current = (bucket_bytes * 1e9
                           / (self.bytes_per_sec * elapsed))
                current = current if current < 1.0 else 1.0
                # 0 < elapsed < bucket_ns here: the weight needs no clamp.
                weight = elapsed / self.bucket_ns
                u = (1.0 - weight) * self._last_utilization + weight * current
        idle = 1.0 - u
        inflation = 1.0 + _BETA * u / (idle if idle > 1e-6 else 1e-6)
        if inflation > self.max_latency_inflation:
            inflation = self.max_latency_inflation
        crossing = self._crossing_ns = int(self.crossing_latency_ns
                                           * inflation)
        self._crossing_at = now
        return crossing

    def traverse(self, nbytes: int) -> int:
        """Charge a transfer; return its total delay (latency + queue +
        service) in ns.

        The size is checked before anything is charged.  Then, in one
        frame: the load bucket takes the bytes and is read for the
        crossing inflation (as in :meth:`posted_crossing_ns`, which
        keeps the crossing for this instant), and the byte queue takes
        them (as in :meth:`~repro.sim.resources.BandwidthServer.account`,
        service time from the memo).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        now = self.env._now
        elapsed = now - self._bucket_start
        if elapsed >= self.bucket_ns:
            u = (self._bucket_bytes * 1e9
                 / (self.bytes_per_sec * (elapsed if elapsed > 1 else 1)))
            u = u if u < 1.0 else 1.0
            self._last_utilization = u
            self._bucket_start = now
            self._bucket_bytes = nbytes
        else:
            bucket_bytes = self._bucket_bytes + nbytes
            self._bucket_bytes = bucket_bytes
            if elapsed <= 0:
                u = self._last_utilization
            else:
                current = (bucket_bytes * 1e9
                           / (self.bytes_per_sec * elapsed))
                current = current if current < 1.0 else 1.0
                weight = elapsed / self.bucket_ns
                u = (1.0 - weight) * self._last_utilization + weight * current
        idle = 1.0 - u
        inflation = 1.0 + _BETA * u / (idle if idle > 1e-6 else 1e-6)
        if inflation > self.max_latency_inflation:
            inflation = self.max_latency_inflation
        crossing = self._crossing_ns = int(self.crossing_latency_ns
                                           * inflation)
        self._crossing_at = now
        free_at = self._free_at
        start = free_at if free_at > now else now
        try:
            duration = self._service[nbytes]
        except KeyError:
            duration = self._memoise(nbytes)
        self._free_at = start + duration
        self._busy_ns += duration
        self._bytes_total += nbytes
        return crossing + (start - now) + duration


class Interconnect:
    """The full-socket interconnect: directional links between node pairs.

    ``table[src][dst]`` is the src->dst link (``None`` where src == dst).
    The memory system and the PCIe endpoints index it directly on their
    hot paths, with nodes they already know to differ; :meth:`link` is
    the checked lookup.
    """

    def __init__(self, env: Environment, num_nodes: int,
                 bytes_per_sec_per_direction: float,
                 crossing_latency_ns: int,
                 max_latency_inflation: float = 12.0):
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.env = env
        self.num_nodes = num_nodes
        self.table: List[List[Optional[InterconnectLink]]] = [
            [None if src == dst else InterconnectLink(
                env, src, dst, bytes_per_sec_per_direction,
                crossing_latency_ns, max_latency_inflation)
             for dst in range(num_nodes)]
            for src in range(num_nodes)]

    def link(self, src_node: int, dst_node: int) -> InterconnectLink:
        n = self.num_nodes
        if src_node != dst_node and 0 <= src_node < n and 0 <= dst_node < n:
            return self.table[src_node][dst_node]
        raise KeyError(f"no interconnect link {src_node}->{dst_node} "
                       f"(same node, or node out of range)")

    def loaded_round_trip_ns(self, a: int, b: int) -> int:
        """Congestion-inflated latency of one a->b->a line round trip."""
        if a == b:
            return 0
        return (self.link(a, b).loaded_crossing_ns()
                + self.table[b][a].loaded_crossing_ns())

    def links(self) -> List[InterconnectLink]:
        return [link for row in self.table for link in row
                if link is not None]

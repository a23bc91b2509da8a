"""The byte-serial server behind every piece of contended hardware.

A :class:`BandwidthServer` services charges FIFO at a fixed byte rate,
so queueing delay under load *emerges* rather than being modelled
analytically.  QPI links, PCIe links and the Ethernet wire are all
BandwidthServers (DRAM controllers share their bandwidth instead; see
:class:`repro.memory.dram.DramController`).  A charge returns its delay
in ns, which the caller folds into the sleep its process yields.
"""

from __future__ import annotations

from repro.sim.engine import Environment

#: Width of the load bucket that each DRAM controller and each QPI link
#: direction keeps beside its byte counters.  The owner adds every charge
#: to the current bucket; its load estimate blends the last completed
#: bucket's utilization with the current one's, weighted by how far the
#: current bucket has run.  Latencies inflate with that estimate — the
#: standard queueing-delay approximation that turns "STREAM is hammering
#: the QPI" into "remote cache-line fills got slower" (paper §5.2).
LOAD_BUCKET_NS = 20_000


class BandwidthServer:
    """A FIFO byte-serial server with busy-time accounting.

    ``account(nbytes)`` returns the delay until the final byte has been
    serviced.  Back-to-back charges queue behind each other, so a
    saturated link exhibits growing delay — this is what turns "STREAM pairs
    hammering the QPI" into measurably worse remote-DMA latency without any
    special-case congestion formula.
    """

    def __init__(self, env: Environment, bytes_per_sec: float, name: str = ""):
        if bytes_per_sec <= 0:
            raise ValueError(f"bytes_per_sec must be > 0, got {bytes_per_sec}")
        self.env = env
        self.name = name
        self.bytes_per_sec = float(bytes_per_sec)
        self._free_at = 0          # time the server next becomes idle
        self._busy_ns = 0          # cumulative service time
        self._bytes_total = 0

    def service_time(self, nbytes: int) -> int:
        """Pure service time for ``nbytes`` (no queueing), in ns."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        return int(round(nbytes * 1e9 / self.bytes_per_sec))

    def set_rate(self, bytes_per_sec: float) -> None:
        """Change the service rate (link retraining, fault throttling).

        The un-started portion of the queued backlog is rescaled to the
        new rate, so a fault throttle (qpi_throttle, pcie_degrade) takes
        effect immediately instead of only after the old-rate backlog
        drains.  Delays already returned keep their values; only the
        server's future availability (and thus every transfer accounted
        after the change) moves.
        """
        if bytes_per_sec <= 0:
            raise ValueError(f"bytes_per_sec must be > 0, got {bytes_per_sec}")
        now = self.env._now
        backlog = self._free_at - now
        if backlog > 0:
            self._free_at = now + int(round(
                backlog * self.bytes_per_sec / bytes_per_sec))
        self.bytes_per_sec = float(bytes_per_sec)

    def queueing_delay(self) -> int:
        """Delay a zero-byte transfer would see right now, in ns."""
        return max(0, self._free_at - self.env.now)

    def account(self, nbytes: int) -> int:
        """Charge bytes and return the total delay (queue + service).
        The caller folds the delay into a larger latency sum or sleeps
        it."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        # env._now (not the .now property): this runs a few hundred
        # thousand times per simulated second.
        now = self.env._now
        free_at = self._free_at
        start = free_at if free_at > now else now
        # service_time() inlined (hot path): round() of a float already
        # returns the int that int(round(...)) would.
        duration = round(nbytes * 1e9 / self.bytes_per_sec)
        self._free_at = start + duration
        self._busy_ns += duration
        self._bytes_total += nbytes
        return (start - now) + duration

    def account_batch(self, nbytes: int, nbursts: int) -> int:
        """Charge ``nbursts`` back-to-back transfers of ``nbytes`` each.

        Bit-identical to ``nbursts`` sequential :meth:`account` calls at
        the current timestamp (same per-burst rounding, same final
        ``_free_at``/counters), collapsed into one call; the return value
        is the delay until the *final* burst completes — exactly what the
        last of the sequential calls would have returned.  This is how
        an adaptive train charges the PCIe link and interconnect per
        burst.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if nbursts < 1:
            raise ValueError(f"nbursts must be >= 1, got {nbursts}")
        now = self.env._now
        free_at = self._free_at
        start = free_at if free_at > now else now
        duration = int(round(nbytes * 1e9 / self.bytes_per_sec))
        total = duration * nbursts
        self._free_at = start + total
        self._busy_ns += total
        self._bytes_total += nbytes * nbursts
        return (start - now) + total

    @property
    def bytes_total(self) -> int:
        return self._bytes_total

    @property
    def busy_ns(self) -> int:
        """Cumulative service time — the numerator of utilization()."""
        return self._busy_ns

    def utilization(self) -> float:
        """Fraction of wall time busy since t=0."""
        elapsed = self.env.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_ns / elapsed)

    def __repr__(self) -> str:
        return (f"<BandwidthServer {self.name or '?'} "
                f"{self.bytes_per_sec / 1e9:.1f} GB/s "
                f"backlog={self.queueing_delay()}ns>")

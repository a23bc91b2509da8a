"""The byte-serial server behind every piece of contended hardware.

A :class:`BandwidthServer` services charges FIFO at a fixed byte rate,
so queueing delay under load *emerges* rather than being modelled
analytically.  QPI links, PCIe links and the Ethernet wire are all
BandwidthServers (DRAM controllers share their bandwidth instead; see
:class:`repro.memory.dram.DramController`).  A charge returns its delay
in ns, which the caller folds into the sleep its process yields.

A resource sees few distinct transfer sizes at one rate (a STREAM chunk,
a packet batch, a request header), so each server and each DRAM
controller keeps a service-time memo: ``nbytes`` -> the rounded ns that
:meth:`BandwidthServer.service_time` would return at the current rate.
A rate change (:meth:`BandwidthServer.set_rate`, so also a QPI throttle
and a PCIe retrain) empties it, and so does a change in a DRAM's
consumer count.  It holds at most :data:`SERVICE_MEMO_ENTRIES` sizes; a
new size past that empties it first, so a resource whose sizes drift
(STREAM readers' misses follow LLC residency) keeps a bounded memo of
its recent sizes.  A memo hit returns the int the formula returns, so
every charge stays bit-identical.
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

#: Distinct transfer sizes one resource's service-time memo holds.  A
#: new size past this many empties the memo before it is stored.
SERVICE_MEMO_ENTRIES = 32


class BandwidthServer:
    """A FIFO byte-serial server with busy-time accounting.

    ``account(nbytes)`` returns the delay until the final byte has been
    serviced.  Back-to-back charges queue behind each other, so a
    saturated link exhibits growing delay — this is what turns "STREAM pairs
    hammering the QPI" into measurably worse remote-DMA latency without any
    special-case congestion formula.

    Slotted, as is :class:`~repro.interconnect.link.InterconnectLink`:
    every STREAM chunk charges a link, and a slot is read and written
    faster than an instance-dict attribute.
    """

    __slots__ = ("env", "name", "bytes_per_sec", "_free_at", "_busy_ns",
                 "_bytes_total", "_service")

    def __init__(self, env: Environment, bytes_per_sec: float, name: str = ""):
        if bytes_per_sec <= 0:
            raise ValueError(f"bytes_per_sec must be > 0, got {bytes_per_sec}")
        self.env = env
        self.name = name
        self.bytes_per_sec = float(bytes_per_sec)
        self._free_at = 0          # time the server next becomes idle
        self._busy_ns = 0          # cumulative service time
        self._bytes_total = 0
        #: Service-time memo, nbytes -> ns at the current rate.
        self._service = {}

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
        self._service = {}

    def _memoise(self, nbytes: int) -> int:
        """Service time of ``nbytes`` at the current rate, stored in the
        memo (emptied first when full).  round() of a float already
        returns the int that int(round(...)) would."""
        memo = self._service
        if len(memo) >= SERVICE_MEMO_ENTRIES:
            memo.clear()
        duration = memo[nbytes] = round(nbytes * 1e9 / self.bytes_per_sec)
        return duration

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
        # service_time() from the memo (hot path).
        try:
            duration = self._service[nbytes]
        except KeyError:
            duration = self._memoise(nbytes)
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
        try:
            duration = self._service[nbytes]
        except KeyError:
            duration = self._memoise(nbytes)
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

"""Shared-resource primitives built on the event kernel.

Three abstractions cover every piece of contended hardware in the simulator:

:class:`Resource`
    Counted mutual exclusion (e.g. a CPU core, a DMA engine channel).

:class:`Store`
    A FIFO buffer of objects with blocking get/put (e.g. a descriptor ring,
    a NIC ingress queue).

:class:`BandwidthServer`
    A byte-serial link: transfers are serviced FIFO at a fixed byte rate, so
    queueing delay under load *emerges* rather than being modelled
    analytically.  QPI links, PCIe links and the Ethernet wire are all
    BandwidthServers (DRAM controllers share their bandwidth instead; see
    :class:`repro.memory.dram.DramController`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Environment, Event

#: Width of the load bucket that each DRAM controller and each QPI link
#: direction keeps beside its byte counters.  The owner adds every charge
#: to the current bucket; its load estimate blends the last completed
#: bucket's utilization with the current one's, weighted by how far the
#: current bucket has run.  Latencies inflate with that estimate — the
#: standard queueing-delay approximation that turns "STREAM is hammering
#: the QPI" into "remote cache-line fills got slower" (paper §5.2).
LOAD_BUCKET_NS = 20_000


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager so callers cannot leak slots::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with FIFO admission."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set = set()
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiters:
            self._waiters.remove(request)
            return
        else:
            return  # already released; releasing twice is harmless
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            self._users.add(nxt)
            nxt.succeed()


class Store:
    """FIFO object buffer with optional capacity."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    @property
    def level(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif not self.is_full:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking pop; returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_putter()
        return item

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_event, item = self._putters.popleft()
            self._items.append(item)
            put_event.succeed()


class BandwidthServer:
    """A FIFO byte-serial server with busy-time accounting.

    ``transfer(nbytes)`` returns an event that fires once the final byte has
    been serviced.  Back-to-back transfers queue behind each other, so a
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
        drains.  Events already created by :meth:`transfer` keep their
        scheduled completion times; only the server's future availability
        (and thus every transfer accounted after the change) moves.
        """
        if bytes_per_sec <= 0:
            raise ValueError(f"bytes_per_sec must be > 0, got {bytes_per_sec}")
        now = self.env._now
        backlog = self._free_at - now
        if backlog > 0:
            self._free_at = now + int(round(
                backlog * self.bytes_per_sec / bytes_per_sec))
        self.bytes_per_sec = float(bytes_per_sec)

    def transfer(self, nbytes: int) -> Event:
        """Enqueue a transfer; the event fires at service completion."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        now = self.env._now
        free_at = self._free_at
        start = free_at if free_at > now else now
        # service_time() inlined (hot path; same rounding expression).
        duration = int(round(nbytes * 1e9 / self.bytes_per_sec))
        self._free_at = start + duration
        self._busy_ns += duration
        self._bytes_total += nbytes
        event = Event(self.env)
        event.succeed(delay=self._free_at - now)
        return event

    def queueing_delay(self) -> int:
        """Delay a zero-byte transfer would see right now, in ns."""
        return max(0, self._free_at - self.env.now)

    def account(self, nbytes: int) -> int:
        """Charge bytes and return total delay (queue + service) without
        creating an event.  Used on hot paths where the caller folds the
        delay into a larger latency sum."""
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

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
    analytically.  QPI links, PCIe links, DRAM channels and the Ethernet
    wire are all BandwidthServers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Environment, Event
from repro.sim.errors import SimulationError


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
        self._window_start = 0     # for windowed utilisation/byte queries
        self._window_bytes = 0

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

        Also bumps the environment's ``rate_epoch`` so the fluid tier
        invalidates every steady interval that spans this boundary.
        """
        if bytes_per_sec <= 0:
            raise ValueError(f"bytes_per_sec must be > 0, got {bytes_per_sec}")
        now = self.env._now
        backlog = self._free_at - now
        if backlog > 0:
            self._free_at = now + int(round(
                backlog * self.bytes_per_sec / bytes_per_sec))
        self.bytes_per_sec = float(bytes_per_sec)
        self.env.rate_epoch += 1

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
        self._window_bytes += nbytes
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
        self._window_bytes += nbytes
        return (start - now) + duration

    def account_batch(self, nbytes: int, nbursts: int) -> int:
        """Charge ``nbursts`` back-to-back transfers of ``nbytes`` each.

        Bit-identical to ``nbursts`` sequential :meth:`account` calls at
        the current timestamp (same per-burst rounding, same final
        ``_free_at``/counters), collapsed into one call; the return value
        is the delay until the *final* burst completes — exactly what the
        last of the sequential calls would have returned.  This is the
        fluid tier's per-burst-faithful PCIe/interconnect charge.
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
        self._window_bytes += nbytes * nbursts
        return (start - now) + total

    @property
    def bytes_total(self) -> int:
        return self._bytes_total

    @property
    def busy_ns(self) -> int:
        """Cumulative service time — the numerator of utilization()."""
        return self._busy_ns

    def utilization(self, since: int = 0) -> float:
        """Fraction of wall time busy between ``since`` and now."""
        elapsed = self.env.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_ns / elapsed)

    def reset_window(self) -> None:
        self._window_start = self.env.now
        self._window_bytes = 0

    def window_throughput_bps(self) -> float:
        """Bytes/sec moved since the last ``reset_window()``."""
        elapsed = self.env.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._window_bytes * 1e9 / elapsed

    def __repr__(self) -> str:
        return (f"<BandwidthServer {self.name or '?'} "
                f"{self.bytes_per_sec / 1e9:.1f} GB/s "
                f"backlog={self.queueing_delay()}ns>")


class RateEstimator:
    """Rolling estimate of a server's offered load vs. capacity.

    Buckets bytes into fixed windows; ``utilization()`` blends the last
    completed bucket with the current one.  Used to inflate memory and
    interconnect latencies under load — the standard queueing-delay
    approximation that turns "STREAM is hammering the QPI" into "remote
    cache-line fills got slower" (paper §5.2).
    """

    def __init__(self, env: Environment, bytes_per_sec: float,
                 bucket_ns: int = 20_000):
        self.env = env
        self.bytes_per_sec = float(bytes_per_sec)
        self.bucket_ns = int(bucket_ns)
        self._bucket_start = 0
        self._bucket_bytes = 0
        self._last_utilization = 0.0
        #: Active steady-interval reservations, keyed by flow id:
        #: ``{flow_id: [end_ns, rate_bps, span_ns, prev_rate_bps]}``.
        #: A flow's charges within one interval accumulate into its
        #: slot's rate; its next interval *replaces* the slot (keeping
        #: the replaced block's final rate as ``prev_rate``), so an
        #: overestimated span never leaves a stale tail stacked under
        #: the successor.  Empty outside fluid accuracy.
        self._pending: dict = {}

    def update(self, nbytes: int) -> None:
        now = self.env._now
        span = self.env.fluid_span_ns
        if span > 0:
            # Steady-interval charge: the bytes arrive paced over the
            # span.  Register the interval's average rate instead of
            # depositing into the bucket stream — an instant deposit of
            # a whole interval's bytes would read as a saturation spike
            # the exact schedule never shows.
            end = now + span
            rate = nbytes * 1e9 / span
            slot = self._pending.get(self.env.fluid_flow_id)
            if slot is not None and slot[0] == end:
                slot[1] += rate
            else:
                # New interval block: replace the flow's reservation.
                # Its previous block's full rate is kept as prev_rate
                # (the flow's own recent average) unless the flow went
                # idle for more than a block — then the exact bucket
                # would have decayed it too.
                prev = (slot[1] if slot is not None
                        and slot[0] + slot[2] > now else 0.0)
                self._pending[self.env.fluid_flow_id] = [
                    end, rate, span, prev]
            return
        elapsed = now - self._bucket_start
        if elapsed >= self.bucket_ns:
            last = (self._bucket_bytes * 1e9
                    / (self.bytes_per_sec * (elapsed if elapsed > 1 else 1)))
            self._last_utilization = last if last < 1.0 else 1.0
            self._bucket_start = now
            self._bucket_bytes = 0
        self._bucket_bytes += nbytes

    def _reserved_rate(self, now: int, exclude: int = 0) -> float:
        """Aggregate rate (bytes/sec) of the *currently active*
        steady-interval reservations; expired ones are dropped.  A flow
        issuing back-to-back intervals keeps exactly one reservation
        alive at any instant, so its contribution equals its average
        rate — no tails, no double counting.

        ``exclude`` marks the flow currently *inside* its own interval
        block: for it, the slot's still-accumulating current rate is
        swapped for the previous block's full rate.  That mirrors the
        exact schedule, where a charge reads the load factor before
        depositing its own bytes but does see its *past* deposits in
        the bucket blend — a flow's load slows itself down, just with
        one block of lag."""
        total = 0.0
        expired = None
        for fid, (end, rate, _span, prev) in self._pending.items():
            if now < end:
                total += prev if fid == exclude else rate
            else:
                expired = fid if expired is None else expired
        if expired is not None:
            self._pending = {fid: slot for fid, slot in
                             self._pending.items() if slot[0] > now}
        return total

    def utilization(self) -> float:
        now = self.env._now
        elapsed = now - self._bucket_start
        if elapsed <= 0:
            base = self._last_utilization
        else:
            current = (self._bucket_bytes * 1e9
                       / (self.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            # Blend: the current bucket only counts once it has some
            # history, so a single burst at bucket start doesn't read as
            # saturation.
            weight = elapsed / self.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            base = ((1.0 - weight) * self._last_utilization
                    + weight * current)
        if self._pending:
            exclude = (self.env.fluid_flow_id
                       if self.env.fluid_span_ns > 0 else 0)
            base = min(1.0, base + self._reserved_rate(now, exclude)
                       / self.bytes_per_sec)
        return base

    def update_utilization(self, nbytes: int) -> float:
        """Fused ``update(nbytes)`` followed by ``utilization()`` — the
        two always run back to back on the link hot path, and fusing them
        halves the call overhead.  Bit-identical to the pair."""
        if self._pending or self.env.fluid_span_ns > 0:
            # Fluid reservations in play: take the unfused path, which
            # handles draining and the reserved-rate contribution.
            self.update(nbytes)
            return self.utilization()
        now = self.env._now
        elapsed = now - self._bucket_start
        if elapsed >= self.bucket_ns:
            last = (self._bucket_bytes * 1e9
                    / (self.bytes_per_sec * (elapsed if elapsed > 1 else 1)))
            last = last if last < 1.0 else 1.0
            self._last_utilization = last
            self._bucket_start = now
            self._bucket_bytes = nbytes
            # elapsed is now zero: utilization() would return the stored
            # last-bucket figure unchanged.
            return last
        bucket_bytes = self._bucket_bytes + nbytes
        self._bucket_bytes = bucket_bytes
        if elapsed <= 0:
            return self._last_utilization
        current = bucket_bytes * 1e9 / (self.bytes_per_sec * elapsed)
        current = current if current < 1.0 else 1.0
        # 0 < elapsed < bucket_ns here, so the weight needs no clamp.
        weight = elapsed / self.bucket_ns
        return (1.0 - weight) * self._last_utilization + weight * current


class ProcessorSharingServer:
    """Approximate processor-sharing bandwidth: N concurrent flows each get
    rate/N.  Used for DRAM controllers where many agents interleave, making
    strict FIFO too pessimistic for small accesses.

    The approximation recomputes per-flow delay from the instantaneous flow
    count, which is accurate when flows have similar sizes (our accesses are
    cache-line batches).
    """

    def __init__(self, env: Environment, bytes_per_sec: float, name: str = ""):
        if bytes_per_sec <= 0:
            raise ValueError(f"bytes_per_sec must be > 0, got {bytes_per_sec}")
        self.env = env
        self.name = name
        self.bytes_per_sec = float(bytes_per_sec)
        self._active = 0
        self._bytes_total = 0
        self._window_start = 0
        self._window_bytes = 0

    def account(self, nbytes: int) -> int:
        """Charge bytes; return the slowed-down service time in ns."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self._bytes_total += nbytes
        self._window_bytes += nbytes
        active = self._active
        share = active if active > 1 else 1
        return round(nbytes * share * 1e9 / self.bytes_per_sec)

    def enter(self) -> None:
        self._active += 1

    def leave(self) -> None:
        if self._active <= 0:
            raise SimulationError(f"leave() without enter() on {self.name}")
        self._active -= 1

    @property
    def bytes_total(self) -> int:
        return self._bytes_total

    def reset_window(self) -> None:
        self._window_start = self.env.now
        self._window_bytes = 0

    def window_throughput_bps(self) -> float:
        elapsed = self.env.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._window_bytes * 1e9 / elapsed

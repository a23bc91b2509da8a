"""Last-level cache model with DDIO allocation.

The LLC is modelled at **region granularity**: for each region we track how
many of its bytes are resident, evicting least-recently-used regions when
capacity is exceeded.  This captures the two behaviours the paper's results
hinge on:

* DDIO — DMA writes from a *local* device allocate into (a slice of) the
  LLC, so the CPU's subsequent reads hit; remote DMA writes bypass the LLC
  and additionally invalidate any cached copy (§2.2).
* Capacity — when the combined working set of many cores exceeds the LLC,
  residency fractions drop and memory traffic appears even in the local
  configuration (§5.1.1, multi-core throughput).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.memory.region import Region


class _Entry:
    __slots__ = ("resident", "ddio")

    def __init__(self):
        self.resident = 0   # bytes of the region currently cached
        self.ddio = 0       # subset of `resident` allocated by DDIO


class LastLevelCache:
    """One socket's LLC."""

    def __init__(self, node_id: int, capacity: int, ddio_fraction: float):
        if capacity <= 0:
            raise ValueError(f"LLC capacity must be > 0, got {capacity}")
        if not 0.0 < ddio_fraction <= 1.0:
            raise ValueError(f"ddio_fraction out of (0, 1]: {ddio_fraction}")
        self.node_id = node_id
        self.capacity = capacity
        self.ddio_capacity = int(capacity * ddio_fraction)
        self._entries: "OrderedDict[Region, _Entry]" = OrderedDict()
        self._occupied = 0
        self._ddio_occupied = 0
        # Counters for reporting.
        self.hits_bytes = 0
        self.miss_bytes = 0
        self.invalidated_bytes = 0

    # ----------------------------------------------------------- queries

    @property
    def occupied(self) -> int:
        return self._occupied

    @property
    def ddio_occupied(self) -> int:
        """Bytes currently held by DDIO allocations (<= ddio_capacity)."""
        return self._ddio_occupied

    def residency(self, region: Region) -> float:
        """Fraction of the region's bytes that are cache-resident."""
        entry = self._entries.get(region)
        if entry is None:
            return 0.0
        fraction = entry.resident / region.size
        return fraction if fraction < 1.0 else 1.0

    def resident_bytes(self, region: Region) -> int:
        entry = self._entries.get(region)
        return 0 if entry is None else entry.resident

    # ------------------------------------------------------------ updates

    def load(self, region: Region, nbytes: int) -> None:
        """Allocate bytes of ``region`` (CPU read/write allocation path)."""
        if region.non_temporal:
            return
        self._insert(region, nbytes, ddio=False)

    def ddio_write(self, region: Region, nbytes: int,
                   nbursts: int = 1) -> int:
        """DDIO allocation by a local device's DMA write of ``nbytes`` in
        ``nbursts`` back-to-back bursts (more than one for an adaptive
        train).

        Each burst absorbs up to the DDIO slice capacity; the remainder
        goes to DRAM at the caller's charge.  Returns the bytes absorbed
        over all bursts.  The bursts are equal but for the last, which
        takes the division remainder, so the per-burst sum has a closed
        form.  Growth is capped by the region size and eviction runs
        once at the end: the same final state as evicting after every
        burst, since no other access interleaves within the batch.
        """
        if region.non_temporal:
            return 0
        cap = self.ddio_capacity
        if nbursts == 1:
            absorbed = nbytes if nbytes < cap else cap
        else:
            per_burst = nbytes // nbursts
            last = nbytes - per_burst * (nbursts - 1)
            absorbed = ((nbursts - 1) * (per_burst if per_burst < cap
                                         else cap)
                        + (last if last < cap else cap))
        self._insert(region, absorbed, ddio=True)
        return absorbed

    def invalidate(self, region: Region, nbytes: Optional[int] = None) -> int:
        """Drop (up to) ``nbytes`` of the region; returns bytes dropped."""
        entry = self._entries.get(region)
        if entry is None:
            return 0
        dropped = entry.resident if nbytes is None else min(
            entry.resident, nbytes)
        ddio_dropped = min(entry.ddio, dropped)
        entry.resident -= dropped
        entry.ddio -= ddio_dropped
        self._occupied -= dropped
        self._ddio_occupied -= ddio_dropped
        self.invalidated_bytes += dropped
        if entry.resident <= 0:
            del self._entries[region]
            # A fully-evicted region's freshly DMA-written bytes are gone
            # from this LLC; subsequent reads must miss (multi-core
            # working sets exceeding the LLC reintroduce memory traffic
            # even with DDIO, §5.1.1).
            if region.dma_llc_node == self.node_id:
                region.dma_llc_node = None
        return dropped

    def touch(self, region: Region) -> None:
        """Mark the region most-recently used."""
        if region in self._entries:
            self._entries.move_to_end(region)

    def stream_access(self, region: Region, nbytes: int) -> int:
        """A CPU streaming access of ``nbytes``; returns the bytes that
        missed.

        Counts the hits and misses at the region's residency fraction,
        marks it most recently used and, when any byte missed, allocates
        ``nbytes`` as :meth:`load` does.  Every STREAM chunk lands here,
        so the allocation is inlined: no other frame runs unless it
        evicts."""
        entries = self._entries
        entry = entries.get(region)
        if entry is None:
            self.miss_bytes += nbytes
            if not nbytes or region.non_temporal:
                return nbytes
            entry = entries[region] = _Entry()
            miss = nbytes
        else:
            fraction = entry.resident / region.size
            fraction = fraction if fraction < 1.0 else 1.0
            hit = int(nbytes * fraction)
            self.hits_bytes += hit
            self.miss_bytes += nbytes - hit
            entries.move_to_end(region)
            miss = int(nbytes * (1.0 - fraction))
            if not miss or region.non_temporal:
                return miss
        # _insert(region, nbytes, ddio=False), on the entry just found.
        room_in_region = region.size - entry.resident
        grow = room_in_region if room_in_region < nbytes else nbytes
        grow = grow if grow > 0 else 0
        entry.resident += grow
        self._occupied += grow
        if self._occupied > self.capacity:
            self._evict_overflow()
        return miss

    # ----------------------------------------------------------- internal

    def _insert(self, region: Region, nbytes: int, ddio: bool) -> None:
        entries = self._entries
        entry = entries.get(region)
        if entry is None:
            entry = _Entry()
            entries[region] = entry
        else:
            entries.move_to_end(region)
        # max(0, min(nbytes, room_in_region)) as conditionals (hot path).
        room_in_region = region.size - entry.resident
        grow = room_in_region if room_in_region < nbytes else nbytes
        grow = grow if grow > 0 else 0
        entry.resident += grow
        self._occupied += grow
        if ddio:
            entry.ddio += grow
            self._ddio_occupied += grow
            if self._ddio_occupied > self.ddio_capacity:
                self._evict_ddio_overflow()
        if self._occupied > self.capacity:
            self._evict_overflow()

    # Both evictions rely on the region just allocated being the newest
    # entry (_insert moves it to the end), so its own bytes go last.

    def _evict_overflow(self) -> None:
        """Evict least-recently-used regions until the cache fits; a
        single region larger than the cache is clamped to it."""
        entries = self._entries
        capacity = self.capacity
        while self._occupied > capacity:
            if len(entries) == 1:
                (entry,) = entries.values()
                entry.resident -= self._occupied - capacity
                self._occupied = capacity
                if entry.ddio > capacity:
                    entry.ddio = self._ddio_occupied = capacity
                return
            victim, entry = entries.popitem(last=False)
            self._occupied -= entry.resident
            self._ddio_occupied -= entry.ddio
            if victim.dma_llc_node == self.node_id:   # as in invalidate()
                victim.dma_llc_node = None

    def _evict_ddio_overflow(self) -> None:
        """DDIO may not overflow its slice: shrink the oldest DDIO
        allocations until it fits, the newest region's last.

        One walk in recency order; regions shrunk to nothing are deleted
        after it.  Unlike :meth:`_evict_overflow` and :meth:`invalidate`,
        a deleted region keeps its ``dma_llc_node`` (ROADMAP item 4):
        fixing that moves exact-tier tables."""
        over = self._ddio_occupied - self.ddio_capacity
        # The walk always frees exactly `over`: the newest region, walked
        # last, has just grown by at least that many DDIO bytes.
        self._ddio_occupied -= over
        self._occupied -= over
        emptied = []
        for region, entry in self._entries.items():
            ddio = entry.ddio
            if ddio:
                drop = ddio if ddio < over else over
                entry.ddio = ddio - drop
                entry.resident -= drop
                if entry.resident <= 0:
                    emptied.append(region)
                over -= drop
                if not over:
                    break
        for region in emptied:
            del self._entries[region]

    def __repr__(self) -> str:
        return (f"<LLC node={self.node_id} "
                f"{self._occupied}/{self.capacity} B "
                f"ddio={self._ddio_occupied}/{self.ddio_capacity} B>")

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
from dataclasses import dataclass
from typing import Optional

from repro.memory.batch import ddio_split
from repro.memory.region import Region


@dataclass
class _Entry:
    resident: int = 0       # bytes of the region currently cached
    ddio: int = 0           # subset of `resident` allocated by DDIO


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

    def ddio_write(self, region: Region, nbytes: int) -> int:
        """DDIO allocation by a local device's DMA write.

        Returns the number of bytes actually absorbed by the DDIO ways;
        the remainder (if the write burst exceeds the DDIO slice) goes to
        DRAM at the caller's charge.
        """
        if region.non_temporal:
            return 0
        absorbed = min(nbytes, self.ddio_capacity)
        self._insert(region, absorbed, ddio=True)
        return absorbed

    def ddio_write_batch(self, region: Region, sizes) -> int:
        """DDIO allocation for back-to-back local DMA bursts (fluid
        steady intervals).

        Equivalent to one :meth:`ddio_write` per element of ``sizes``:
        each burst absorbs up to the DDIO slice capacity, growth is
        capped by the region size, and eviction runs once at the end —
        the same final state as evicting after every burst, since no
        other access interleaves within the batch.  Returns the total
        bytes absorbed; the remainder is the caller's DRAM spill.  The
        per-burst absorb/spill classification is vectorised
        (:func:`repro.memory.batch.ddio_split`).
        """
        if region.non_temporal:
            return 0
        absorbed, _spills = ddio_split(sizes, self.ddio_capacity)
        total = sum(absorbed)
        self._insert(region, total, ddio=True)
        return total

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
            self._clear_dma_freshness(region)
        return dropped

    def touch(self, region: Region) -> None:
        """Mark the region most-recently used."""
        if region in self._entries:
            self._entries.move_to_end(region)

    def record_access(self, region: Region, nbytes: int) -> float:
        """Account a CPU access: returns the hit fraction and updates
        hit/miss counters and recency.

        Same as :meth:`residency`, the counter update and :meth:`touch`,
        with one dict lookup (every STREAM chunk lands here)."""
        entries = self._entries
        entry = entries.get(region)
        if entry is None:
            self.miss_bytes += nbytes
            return 0.0
        fraction = entry.resident / region.size
        fraction = fraction if fraction < 1.0 else 1.0
        hit = int(nbytes * fraction)
        self.hits_bytes += hit
        self.miss_bytes += nbytes - hit
        entries.move_to_end(region)
        return fraction

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
            self._evict_ddio_overflow(keep=region)
        if self._occupied > self.capacity:
            self._evict_overflow(keep=region)

    def _evict_overflow(self, keep: Region) -> None:
        while self._occupied > self.capacity:
            victim, entry = next(iter(self._entries.items()))
            if victim is keep and len(self._entries) == 1:
                # A single region larger than the cache: clamp it.
                overflow = self._occupied - self.capacity
                entry.resident -= overflow
                entry.ddio = min(entry.ddio, entry.resident)
                self._occupied = self.capacity
                self._ddio_occupied = min(self._ddio_occupied,
                                          self._occupied)
                return
            if victim is keep:
                # Skip the protected region: evict the next-oldest.
                self._entries.move_to_end(victim)
                continue
            self._occupied -= entry.resident
            self._ddio_occupied -= entry.ddio
            del self._entries[victim]
            self._clear_dma_freshness(victim)

    def _evict_ddio_overflow(self, keep: Region) -> None:
        """DDIO may not overflow its slice: shrink oldest DDIO allocations."""
        if self._ddio_occupied <= self.ddio_capacity:
            return
        for victim in list(self._entries):
            if self._ddio_occupied <= self.ddio_capacity:
                break
            entry = self._entries[victim]
            if entry.ddio == 0 or victim is keep:
                continue
            drop = min(entry.ddio,
                       self._ddio_occupied - self.ddio_capacity)
            entry.ddio -= drop
            entry.resident -= drop
            self._occupied -= drop
            self._ddio_occupied -= drop
            if entry.resident <= 0:
                del self._entries[victim]
        if self._ddio_occupied > self.ddio_capacity:
            # Only `keep` holds DDIO bytes: clamp it too.
            entry = self._entries[keep]
            drop = self._ddio_occupied - self.ddio_capacity
            drop = min(drop, entry.ddio)
            entry.ddio -= drop
            entry.resident -= drop
            self._occupied -= drop
            self._ddio_occupied -= drop

    def _clear_dma_freshness(self, region: Region) -> None:
        """A fully-evicted region's freshly-DMA-written bytes are gone
        from this LLC; subsequent reads must miss (multi-core working
        sets exceeding the LLC reintroduce memory traffic even with
        DDIO, §5.1.1)."""
        if getattr(region, "dma_llc_node", None) == self.node_id:
            region.dma_llc_node = None

    def __repr__(self) -> str:
        return (f"<LLC node={self.node_id} "
                f"{self._occupied}/{self.capacity} B "
                f"ddio={self._ddio_occupied}/{self.ddio_capacity} B>")

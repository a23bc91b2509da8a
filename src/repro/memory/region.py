"""Memory regions: the unit of placement and cache-residency tracking.

A :class:`Region` stands for a logically-contiguous buffer — a descriptor
ring, a packet-buffer pool, an application heap slab, a STREAM array.  It
knows its **home node** (where its physical pages live, named by whoever
places it through :meth:`~repro.topology.machine.Machine.alloc_region`)
and the simulator tracks, per LLC, how much of it is currently
cache-resident.

Regions compare and hash by identity: the LLC keys its entries by the
region object itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=False)
class Region:
    """A placed buffer."""

    name: str
    home_node: int
    size: int
    #: Regions written with non-temporal stores never allocate in the LLC.
    non_temporal: bool = False

    #: Node whose LLC holds the region's freshly DMA-written bytes (DDIO),
    #: or None when the last DMA write went to DRAM.  A plain class
    #: attribute, not a dataclass field: DMA state, not a constructor
    #: argument.
    dma_llc_node = None

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} needs size > 0, "
                             f"got {self.size}")
        if self.home_node < 0:
            raise ValueError(f"region {self.name!r} home_node must be >= 0")

    def __repr__(self) -> str:
        return (f"<Region {self.name} node={self.home_node} "
                f"size={self.size}>")

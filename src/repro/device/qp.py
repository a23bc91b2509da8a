"""The generic DMA queue pair: a descriptor ring plus data regions.

Every octo-device queue — NIC Tx/Rx rings, NVMe submission/completion
pairs — owns a ring region allocated on the node of the core it serves
(the XPS/ARFS locality policy, §2.3) and is *served by* exactly one PF
at a time.  The serving PF is mutable: teaming re-homes queues onto a
surviving PF when theirs is hot-unplugged.
"""

from __future__ import annotations

from repro.device.moderation import AdaptiveCoalescing
from repro.units import CACHELINE


class DmaQueuePair:
    """Base class for device queues (ring + per-queue moderation)."""

    direction = "?"

    def __init__(self, queue_id: int, core, machine, pf=None, *,
                 ring_name: str, ring_entries: int):
        if ring_entries < 1:
            raise ValueError(
                f"ring needs >= 1 entry, got {ring_entries}")
        self.queue_id = queue_id
        self.core = core
        self.machine = machine
        #: The PF this queue is currently served by (set by the driver).
        self.pf = pf
        self.ring_entries = ring_entries
        self.ring = machine.alloc_region(
            ring_name, core.node_id, ring_entries * CACHELINE)
        #: Per-queue adaptive interrupt moderation (§5: enabled for the
        #: throughput experiments, disabled for latency).
        self.moderation = AdaptiveCoalescing()
        #: Outstanding descriptors not yet consumed (for drain tracking).
        self.outstanding = 0
        #: High-water mark of ``outstanding`` — the queue-depth figure the
        #: observability layer reports per PF (devices update it inline
        #: when they post descriptors; a plain compare, no instrument).
        self.outstanding_hwm = 0
        self.bytes_total = 0
        self.packets_total = 0

    @property
    def node_id(self) -> int:
        return self.core.node_id

    def is_drained(self) -> bool:
        """True when no descriptors are outstanding — the precondition
        both XPS and ARFS wait for before re-steering a socket, to avoid
        out-of-order delivery (§2.3)."""
        return self.outstanding == 0

    def account(self, npackets: int, nbytes: int) -> None:
        self.packets_total += npackets
        self.bytes_total += nbytes

    def descriptors_until_wrap(self) -> int:
        """Descriptors left before the producer index wraps the ring.

        A coalesced packet train must not cross a queue wrap: the wrap is
        where real drivers re-arm doorbells and recycle completions, so
        the train planner caps a train at this many descriptors.
        """
        return self.ring_entries - (self.packets_total % self.ring_entries)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.queue_id} "
                f"core={self.core.core_id} "
                f"pf={getattr(self.pf, 'name', None)}>")

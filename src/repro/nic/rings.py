"""Per-core NIC queues and their descriptor rings.

Each queue is a :class:`~repro.device.qp.DmaQueuePair` — the generic
octo-device ring — plus the NIC-specific data regions, allocated on the
node of the core it serves (the XPS/ARFS locality policy, §2.3):

* a **ring** region holding request + completion descriptors, and
* a **buffer** region holding packet payloads (Rx only; Tx reads payload
  from whatever region the sender provides).
"""

from __future__ import annotations

from repro.device.qp import DmaQueuePair
from repro.units import KB

#: Descriptors per ring (100 GbE drivers default to deep rings).
RING_ENTRIES = 4096
#: Rx buffer slot size: one MTU packet rounded to 2 KB pages.
RX_BUFFER_SLOT = 2 * KB


class NicQueue(DmaQueuePair):
    """Base class for Tx/Rx queues."""

    direction = "?"

    def __init__(self, queue_id: int, core, machine, pf=None):
        super().__init__(queue_id, core, machine, pf,
                         ring_name=f"{self.direction}ring{queue_id}",
                         ring_entries=RING_ENTRIES)


class RxQueue(NicQueue):
    """A receive queue: NIC DMA-writes payloads + completions here."""

    direction = "rx"

    def __init__(self, queue_id: int, core, machine, pf=None):
        super().__init__(queue_id, core, machine, pf)
        self.buffers = machine.alloc_region(
            f"rxbuf{queue_id}", core.node_id, RING_ENTRIES * RX_BUFFER_SLOT)


class TxQueue(NicQueue):
    """A transmit queue: the OS posts descriptors, the NIC DMA-reads."""

    direction = "tx"

    def __init__(self, queue_id: int, core, machine, pf=None,
                 ooo_okay: bool = True):
        super().__init__(queue_id, core, machine, pf)
        #: Mirror of Linux XPS's per-packet ooo_okay flag: whether the
        #: socket may switch to another Tx queue right now (§4.2).
        self.ooo_okay = ooo_okay
        #: Kernel socket buffers staged for transmit DMA, allocated on the
        #: queue's node like the ring (XPS locality, §2.3).
        self.skbs = machine.alloc_region(
            f"txskb{queue_id}", core.node_id, RING_ENTRIES * RX_BUFFER_SLOT)


class QueueSet:
    """One queue pair per core, as the evaluated drivers configure (§5)."""

    def __init__(self, machine, cores, pf_for_core=None):
        self.machine = machine
        self.rx: list = []
        self.tx: list = []
        #: Core -> the first queue serving it.  A queue's core never
        #: changes, so each is found once, here; cores hash by identity.
        #: The drivers' per-burst lookups read these maps directly.
        self.rx_by_core: dict = {}
        self.tx_by_core: dict = {}
        for i, core in enumerate(cores):
            pf = pf_for_core(core) if pf_for_core else None
            rx = RxQueue(i, core, machine, pf)
            tx = TxQueue(i, core, machine, pf)
            self.rx.append(rx)
            self.tx.append(tx)
            self.rx_by_core.setdefault(core, rx)
            self.tx_by_core.setdefault(core, tx)

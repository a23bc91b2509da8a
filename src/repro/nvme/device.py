"""NVMe controllers (§5.4).

A :class:`NvmeController` models a PM1725a-class SSD: an internal flash
pipeline (a bandwidth server) behind one or two PCIe PFs.  Dual-port
drives — the NVMe spec's multi-PF controllers — can attach one port per
socket, which is the "octoSSD" the paper leaves to future work; we build
both the standard single-port path and the octoSSD steering mode.

PF bookkeeping, hot-unplug/replug notifications and per-PF liveness come
from the generic :class:`~repro.device.base.MultiPfDevice`, and each
queue pair is a :class:`~repro.device.qp.DmaQueuePair` — the same core
the NIC runs on, which is what makes ``pf_down``/``pcie_link_down``/
``pcie_degrade`` fault plans and PF failover work identically for both
devices.
"""

from __future__ import annotations

from typing import Dict, List

from repro.device.base import MultiPfDevice
from repro.device.qp import DmaQueuePair
from repro.pcie.fabric import PhysicalFunction
from repro.sim.resources import BandwidthServer
from repro.units import CACHELINE, KB

#: PM1725a-class sequential read bandwidth.
FLASH_BYTES_PER_SEC = 6.2e9
#: Flash read latency (device-internal, per command batch; at fio-style
#: queue depths later commands' flash latency hides behind the DMA).
FLASH_READ_LATENCY_NS = 80_000
#: Submission/completion ring depth (NVMe drivers default to 1024).
NVME_RING_ENTRIES = 1024
#: Default per-QP data-buffer capacity: iodepth 32 x 128 KB blocks,
#: doubled for double-buffering.
DEFAULT_QP_DATA_BYTES = 8 * 1024 * KB


class NvmeQueuePair(DmaQueuePair):
    """A submission/completion queue pair plus its data buffers."""

    direction = "nvme"

    def __init__(self, qp_id: int, core, machine, pf=None, *,
                 data_bytes: int = DEFAULT_QP_DATA_BYTES):
        if data_bytes < CACHELINE:
            raise ValueError(
                f"QP data region needs >= one cacheline ({CACHELINE} B), "
                f"got {data_bytes}")
        super().__init__(qp_id, core, machine, pf,
                         ring_name=f"nvme-qp{qp_id}-ring",
                         ring_entries=NVME_RING_ENTRIES)
        self.data = machine.alloc_region(
            f"nvme-qp{qp_id}-data", core.node_id, data_bytes)

    @property
    def qp_id(self) -> int:
        return self.queue_id


class NvmeController(MultiPfDevice):
    """One NVMe SSD, possibly dual-port (one PF per socket)."""

    kind = "nvme"

    def __init__(self, machine, pfs: List[PhysicalFunction],
                 name: str = "nvme"):
        if not pfs:
            raise ValueError("an NVMe controller needs at least one PF")
        super().__init__(machine, pfs, name)
        self.flash = BandwidthServer(machine.env, FLASH_BYTES_PER_SEC,
                                     name=f"{name}.flash")
        self.read_bytes = 0
        self.write_bytes = 0
        self._pf_read_bytes: Dict[int, int] = {pf.pf_id: 0 for pf in pfs}

    # ---------------------------------------------------------- commands

    def _serving_pf(self, qp: NvmeQueuePair) -> PhysicalFunction:
        """The PF a command batch on ``qp`` travels through: the QP's
        serving PF (set by the driver's homing policy), falling back to
        port 0 for driverless QPs (unit tests, admin queues)."""
        return qp.pf if qp.pf is not None else self.pfs[0]

    @staticmethod
    def _check_cmd(nbytes: int, ncmds: int) -> None:
        if nbytes <= 0:
            raise ValueError(f"command size must be > 0, got {nbytes}")
        if ncmds < 1:
            raise ValueError(f"ncmds must be >= 1, got {ncmds}")

    def read(self, qp: NvmeQueuePair, nbytes: int, ncmds: int = 1) -> int:
        """``ncmds`` identical read commands posted as one batch: fetch
        from flash, DMA into the QP's buffers through its serving PF,
        write one completion entry per command.  Returns the device-side
        delay in ns."""
        self._check_cmd(nbytes, ncmds)
        pf = self._serving_pf(qp)
        total = ncmds * nbytes
        flash_delay = FLASH_READ_LATENCY_NS + self.flash.account(total)
        dma_delay = pf.dma_write(qp.data, total)
        dma_delay = max(dma_delay, pf.dma_write(qp.ring, ncmds * CACHELINE))
        flow_trace = self.machine.tracer.active_flow
        if flow_trace is not None:
            dma_stage = None
            if self.machine.tracer.blame is not None:
                loc = "local" if pf.is_local_to(qp.node_id) else "qpi"
                dma_stage = f"dma.{loc}"
            # Flash and DMA overlap: flash owns its full time, the DMA
            # stage owns only what flash did not hide, so the charges
            # sum to the returned max(flash, dma).
            flow_trace.step(f"{self.name}.flash", "flash.read", flash_delay,
                            {"cmds": ncmds, "bytes": total}, stage="flash")
            flow_trace.step(f"{self.name}.{pf.name}", "dma.rx", dma_delay,
                            stage=dma_stage,
                            blame_ns=max(0, dma_delay - flash_delay))
        qp.outstanding += ncmds
        if qp.outstanding > qp.outstanding_hwm:
            qp.outstanding_hwm = qp.outstanding
        qp.account(ncmds, total)
        self.read_bytes += total
        self._pf_read_bytes[pf.pf_id] += total
        return max(flash_delay, dma_delay)

    def write(self, qp: NvmeQueuePair, nbytes: int, ncmds: int = 1) -> int:
        """``ncmds`` identical write commands posted as one batch: DMA
        from host buffers into flash, completion entries back."""
        self._check_cmd(nbytes, ncmds)
        pf = self._serving_pf(qp)
        total = ncmds * nbytes
        flash_delay = self.flash.account(total)
        dma_delay = pf.dma_read(qp.data, total)
        dma_delay = max(dma_delay, pf.dma_write(qp.ring, ncmds * CACHELINE))
        flow_trace = self.machine.tracer.active_flow
        if flow_trace is not None:
            dma_stage = None
            if self.machine.tracer.blame is not None:
                loc = "local" if pf.is_local_to(qp.node_id) else "qpi"
                dma_stage = f"dma.{loc}"
            # Mirror of read(): the DMA owns its full time, flash only the
            # residual it does not hide behind the transfer.
            flow_trace.step(f"{self.name}.{pf.name}", "dma.tx", dma_delay,
                            stage=dma_stage)
            flow_trace.step(f"{self.name}.flash", "flash.write", flash_delay,
                            {"cmds": ncmds, "bytes": total}, stage="flash",
                            blame_ns=max(0, flash_delay - dma_delay))
        qp.outstanding += ncmds
        if qp.outstanding > qp.outstanding_hwm:
            qp.outstanding_hwm = qp.outstanding
        qp.account(ncmds, total)
        self.write_bytes += total
        return max(flash_delay, dma_delay)

    # -------------------------------------------------------- accounting

    def pf_read_bytes(self, pf_id: int) -> int:
        return self._pf_read_bytes[pf_id]

    def __repr__(self) -> str:
        return (f"<NvmeController {self.name} ports={len(self.pfs)} "
                f"nodes={[pf.attach_node for pf in self.pfs]}>")

"""Device-generic base: a device occupying one PF per attachment point.

Everything here used to live in :mod:`repro.nic.device`; it is the part
of the NIC model that never looked at a packet — PF bookkeeping, the
hot-unplug/replug notification fan-out, and the liveness queries drivers
use for failover.  The NVMe controller shares it unchanged, which is
what lets one :class:`~repro.faults.injector.FaultInjector` fire
``pf_down``/``pcie_link_down``/``pcie_degrade`` plans at either device.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.pcie.fabric import PhysicalFunction


class MultiPfDevice:
    """A DMA device present on one or more PCIe physical functions."""

    #: Trace-event prefix; subclasses set it ("nic", "nvme", ...).
    kind = "dev"

    def __init__(self, machine, pfs: List[PhysicalFunction],
                 name: str = "dev"):
        if not pfs:
            raise ValueError(
                f"a {self.kind} device needs at least one PF")
        self.machine = machine
        self.pfs = pfs
        self.name = name
        for pf in pfs:
            pf.device = self
        #: Drivers register here to learn about PF hot-unplug/replug.
        self._pf_failure_callbacks: List[Callable] = []
        self._pf_recovery_callbacks: List[Callable] = []

    # ------------------------------------------------------------ helpers

    @property
    def env(self):
        return self.machine.env

    def pf(self, pf_id: int) -> PhysicalFunction:
        return self.pfs[pf_id]

    def pf_local_to(self, node: int) -> Optional[PhysicalFunction]:
        for pf in self.pfs:
            if pf.attach_node == node:
                return pf
        return None

    @property
    def dual_port(self) -> bool:
        return len(self.pfs) > 1

    # ------------------------------------------------------- fault model

    @property
    def alive_pfs(self) -> List[PhysicalFunction]:
        return [pf for pf in self.pfs if pf.alive]

    def pf_alive(self, pf_id: int) -> bool:
        return self.pfs[pf_id].alive

    def add_pf_listener(self, on_failure: Optional[Callable] = None,
                        on_recovery: Optional[Callable] = None) -> None:
        """Register driver callbacks for PF removal/recovery.  Each is
        called with the affected :class:`PhysicalFunction`."""
        if on_failure is not None:
            self._pf_failure_callbacks.append(on_failure)
        if on_recovery is not None:
            self._pf_recovery_callbacks.append(on_recovery)

    def surprise_remove(self, pf_id: int,
                        cause: str = "surprise-remove") -> None:
        """Hot-unplug one PF: its PCIe presence vanishes mid-run.

        The PF and device-side state stop accepting work through it,
        then the registered drivers get a chance to fail over.
        """
        pf = self.pfs[pf_id]
        if not pf.alive:
            raise ValueError(f"PF {pf_id} is already removed")
        pf.fail()
        self._pf_failed(pf_id)
        self.machine.tracer.emit(self.env.now, self.name,
                                 f"{self.kind}.pf_down",
                                 f"pf{pf_id} cause={cause}")
        for callback in self._pf_failure_callbacks:
            callback(pf)

    def recover_pf(self, pf_id: int) -> None:
        """Replug a removed PF (link retrained, function re-enumerated)."""
        pf = self.pfs[pf_id]
        if pf.alive:
            raise ValueError(f"PF {pf_id} is not removed")
        pf.recover()
        self._pf_recovered(pf_id)
        self.machine.tracer.emit(self.env.now, self.name,
                                 f"{self.kind}.pf_up", f"pf{pf_id}")
        for callback in self._pf_recovery_callbacks:
            callback(pf)

    # ------------------------------------------------------------- hooks

    def _pf_failed(self, pf_id: int) -> None:
        """Device-side reaction to a PF removal (e.g. a new firmware
        steering epoch)."""

    def _pf_recovered(self, pf_id: int) -> None:
        """Device-side reaction to a PF replug."""

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name} "
                f"pfs={[pf.attach_node for pf in self.pfs]}>")

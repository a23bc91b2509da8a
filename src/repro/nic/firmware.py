"""NIC firmware personalities.

Both steer an arriving batch in two steps (§4.1): the MPFS picks the PF,
then that PF's ARFS :class:`~repro.nic.steering.RuleTable` picks the Rx
queue, or the RSS hash over its default queues does.

:class:`StandardFirmware` models the stock Mellanox firmware: the MPFS is
keyed by destination MAC, each PF has its own MAC, and therefore a flow's
PF is pinned for the flow's lifetime — remote DMA is unavoidable when the
consuming thread migrates (§2.5).

:class:`OctoFirmware` models the paper's prototype (§4.1): one external
MAC and an MPFS re-keyed by flow 5-tuple, the IOctoRFS rule table.

A firmware reads PF liveness from the PFs themselves, which
:class:`~repro.nic.device.NicDevice` hands it when it loads the firmware.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.nic.packet import Flow
from repro.nic.steering import RuleTable, rss_hash
from repro.pcie.fabric import PhysicalFunction
from repro.sim.errors import DeviceGoneError


class BaseFirmware:
    """Shared steering plumbing for both personalities.

    ``steer_rx`` resolves every arriving batch in full: the personality
    picks the PF, then that PF's ARFS table picks the queue, or the RSS
    hash over its default queues does.  Each table lookup refreshes its
    rule's ``last_hit_at``, so the driver's idle-expiry worker spares
    active flows.
    """

    def __init__(self, num_pfs: int):
        if num_pfs < 1:
            raise ValueError(f"need >= 1 PF, got {num_pfs}")
        self.num_pfs = num_pfs
        self.arfs: List[RuleTable] = [RuleTable() for _ in range(num_pfs)]
        #: The device's PFs, set by the device that loads this firmware;
        #: steering reads their ``alive`` flags.
        self.pfs: List[PhysicalFunction] = []
        #: Default (RSS) queue list per PF, registered by the driver.
        self._default_queues: Dict[int, list] = {i: [] for i in range(num_pfs)}
        #: Bumped on firmware-level steering changes (default-queue
        #: registration, a PF going down or up); part of
        #: :meth:`steering_epoch`.
        self.version = 0
        #: MPFS hardware fast-failover (§4.2): whether the switch may
        #: steer around a dead PF on its own.  The ``mpfs_fast_failover``
        #: component toggles this; standard firmware never consults it
        #: (a MAC-keyed MPFS has nowhere else to deliver).
        self.fast_failover = True

    def register_default_queues(self, pf_id: int, queues: list) -> None:
        self._default_queues[pf_id] = list(queues)
        self.version += 1

    def steering_epoch(self) -> tuple:
        """A fingerprint of every steering input: firmware state and all
        rule tables.  Any rule insert/remove/expiry, PF failure/recovery,
        or queue registration changes it — the packet-train fast path
        treats a changed epoch as a de-coalescing boundary (the steering
        decision may no longer be steady)."""
        return (self.version, tuple(table.version for table in self.arfs))

    def steer_rx(self, flow: Flow, dst_mac: str,
                 now: int = 0) -> Tuple[int, object]:
        pf_id = self._resolve_pf(flow, dst_mac, now)
        queue = self.arfs[pf_id].lookup(flow, now)
        if queue is None:
            defaults = self._default_queues.get(pf_id) or []
            if not defaults:
                raise LookupError(f"PF {pf_id} has no queues registered")
            queue = defaults[rss_hash(flow, len(defaults))]
        return pf_id, queue

    # ------------------------------------------------- personality hooks

    def mac_for_pf(self, pf_id: int) -> str:
        """The MAC peers address ``pf_id``'s netdev by."""
        raise NotImplementedError

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int) -> int:
        """The PF an arriving packet lands on."""
        raise NotImplementedError


class StandardFirmware(BaseFirmware):
    """Stock multi-PF firmware: MAC-keyed MPFS; one netdev per PF."""

    name = "standard"

    def __init__(self, num_pfs: int):
        super().__init__(num_pfs)
        self._pf_by_mac: Dict[str, int] = {
            self.mac_for_pf(pf_id): pf_id for pf_id in range(num_pfs)}

    def mac_for_pf(self, pf_id: int) -> str:
        return f"aa:bb:cc:dd:ee:{pf_id:02x}"

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int) -> int:
        # An unknown MAC lands on PF 0.
        pf_id = self._pf_by_mac.get(dst_mac, 0)
        if not self.pfs[pf_id].alive:
            # The MAC uniquely names this PF's netdev: with the PF gone
            # there is nowhere else to deliver (the NUDMA rigidity §3.3).
            raise DeviceGoneError(
                f"standard firmware: PF {pf_id} for {dst_mac} is gone")
        return pf_id


class OctoFirmware(BaseFirmware):
    """The IOctopus prototype firmware: flow-keyed MPFS (IOctoRFS)."""

    name = "octo"
    #: The single externally-visible MAC of the octoNIC (§3.3).
    MAC = "0c:70:0c:70:0c:70"

    def __init__(self, num_pfs: int):
        super().__init__(num_pfs)
        #: The MPFS's flow -> PF id rules; an unmapped flow lands on PF 0.
        self.ioctorfs = RuleTable()

    def mac_for_pf(self, pf_id: int) -> str:
        return self.MAC

    def steering_epoch(self) -> tuple:
        return (self.ioctorfs.version,) + super().steering_epoch()

    def ioctorfs_update(self, flow: Flow, pf_id: int, now: int) -> None:
        """Point a flow at a PF (called by the octoNIC driver's kernel
        worker after an ARFS migration callback, §4.2)."""
        if not 0 <= pf_id < self.num_pfs:
            raise ValueError(f"pf_id {pf_id} out of range")
        self.ioctorfs.update(flow, pf_id, now)

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int) -> int:
        pf_id = self.ioctorfs.lookup(flow, now)
        if pf_id is None:
            pf_id = 0
        if self.pfs[pf_id].alive:
            return pf_id
        if not self.fast_failover:
            # Fast-failover ablated: the flow-keyed MPFS behaves as
            # rigidly as the MAC-keyed one — packets for a dead PF
            # have nowhere to land until the driver re-points them.
            raise DeviceGoneError(
                f"octoNIC: PF {pf_id} is gone and MPFS fast-failover "
                f"is disabled")
        # The MPFS is one switch in front of *all* PFs: it can steer
        # around a dead one in hardware, landing the flow on the
        # lowest-numbered surviving PF's tables until the driver
        # re-points the rule.
        for pf in self.pfs:
            if pf.alive:
                return pf.pf_id
        raise DeviceGoneError("octoNIC: no surviving PF to fail over to")

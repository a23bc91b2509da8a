"""NIC firmware personalities.

:class:`StandardFirmware` models the stock Mellanox firmware: the MPFS is
keyed by destination MAC, each PF has its own MAC, and therefore a flow's
PF is pinned for the flow's lifetime — remote DMA is unavoidable when the
consuming thread migrates (§2.5).

:class:`OctoFirmware` models the paper's prototype (§4.1): one external
MAC, an MPFS re-keyed by flow 5-tuple (IOctoRFS), and per-PF ARFS tables
consulted after the PF is chosen.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.nic.packet import Flow
from repro.nic.steering import ArfsTable, Mpfs, rss_hash
from repro.sim.errors import DeviceGoneError


class BaseFirmware:
    """Shared steering plumbing for both personalities.

    ``steer_rx`` resolves every arriving batch in full: the personality
    picks the PF (through the MPFS), then that PF's ARFS table picks the
    queue, or the RSS hash over its default queues does.  Each table
    lookup refreshes its rule's ``last_hit_at``, so the driver's
    idle-expiry worker spares active flows.
    """

    def __init__(self, num_pfs: int):
        if num_pfs < 1:
            raise ValueError(f"need >= 1 PF, got {num_pfs}")
        self.num_pfs = num_pfs
        self.arfs: List[ArfsTable] = [ArfsTable() for _ in range(num_pfs)]
        #: Default (RSS) queue list per PF, registered by the driver.
        self._default_queues: Dict[int, list] = {i: [] for i in range(num_pfs)}
        #: Per-PF availability, cleared on surprise removal.
        self._pf_alive: List[bool] = [True] * num_pfs
        #: Bumped on firmware-level steering state changes (PF liveness,
        #: default-queue registration); part of :meth:`steering_epoch`.
        self._fw_version = 0
        #: MPFS hardware fast-failover (§4.2): whether the switch may
        #: steer around a dead PF on its own.  The ``mpfs_fast_failover``
        #: component toggles this; standard firmware never consults it
        #: (a MAC-keyed MPFS has nowhere else to deliver).
        self.fast_failover = True

    def register_default_queues(self, pf_id: int, queues: list) -> None:
        self._default_queues[pf_id] = list(queues)
        self._fw_version += 1

    def steering_epoch(self) -> tuple:
        """A fingerprint of every steering input: firmware state, the
        MPFS, and all ARFS tables.  Any rule insert/remove/expiry, PF
        failure/recovery, or queue registration changes it — the packet-
        train fast path treats a changed epoch as a de-coalescing
        boundary (the steering decision may no longer be steady)."""
        return (self._fw_version, self.mpfs.version,
                tuple(table.version for table in self.arfs))

    # -------------------------------------------------------- fault state

    def fail_pf(self, pf_id: int) -> None:
        """Mark a PF unavailable for steering (surprise removal)."""
        self._check_pf_id(pf_id)
        self._pf_alive[pf_id] = False
        self._fw_version += 1

    def recover_pf(self, pf_id: int) -> None:
        self._check_pf_id(pf_id)
        self._pf_alive[pf_id] = True
        self._fw_version += 1

    def pf_alive(self, pf_id: int) -> bool:
        self._check_pf_id(pf_id)
        return self._pf_alive[pf_id]

    def surviving_pfs(self) -> List[int]:
        return [i for i in range(self.num_pfs) if self._pf_alive[i]]

    def _check_pf_id(self, pf_id: int) -> None:
        if not 0 <= pf_id < self.num_pfs:
            raise ValueError(f"pf_id {pf_id} out of range")

    def arfs_update(self, pf_id: int, flow: Flow, queue, now: int = 0) -> None:
        self.arfs[pf_id].update(flow, queue, now)

    def arfs_remove(self, pf_id: int, flow: Flow) -> bool:
        return self.arfs[pf_id].remove(flow)

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

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int) -> int:
        """Personality hook: the PF an arriving packet lands on."""
        raise NotImplementedError


class StandardFirmware(BaseFirmware):
    """Stock multi-PF firmware: MAC-keyed MPFS; one netdev per PF."""

    name = "standard"

    def __init__(self, num_pfs: int):
        super().__init__(num_pfs)
        self.mpfs = Mpfs(mode="mac")
        self.macs: Dict[int, str] = {}
        for pf_id in range(num_pfs):
            mac = f"aa:bb:cc:dd:ee:{pf_id:02x}"
            self.macs[pf_id] = mac
            self.mpfs.bind_mac(mac, pf_id)

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int) -> int:
        pf_id = self.mpfs.steer(flow, dst_mac, now)
        if not self._pf_alive[pf_id]:
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
        self.mpfs = Mpfs(mode="flow")

    def ioctorfs_update(self, flow: Flow, pf_id: int, now: int = 0) -> None:
        """Point a flow at a PF (called by the octoNIC driver's kernel
        worker after an ARFS migration callback, §4.2)."""
        if not 0 <= pf_id < self.num_pfs:
            raise ValueError(f"pf_id {pf_id} out of range")
        self.mpfs.update_flow(flow, pf_id, now)

    def ioctorfs_remove(self, flow: Flow) -> bool:
        return self.mpfs.remove_flow(flow)

    def expire_idle(self, now: int, idle_ns: int) -> List[Flow]:
        return self.mpfs.expire_idle(now, idle_ns)

    def failover_pf(self, dead_pf_id: int) -> int:
        """The PF the MPFS falls back to when ``dead_pf_id`` is gone:
        the lowest-numbered surviving PF (deterministic)."""
        for pf_id in self.surviving_pfs():
            if pf_id != dead_pf_id:
                return pf_id
        raise DeviceGoneError("octoNIC: no surviving PF to fail over to")

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int) -> int:
        pf_id = self.mpfs.steer(flow, dst_mac, now)
        if not self._pf_alive[pf_id]:
            if not self.fast_failover:
                # Fast-failover ablated: the flow-keyed MPFS behaves as
                # rigidly as the MAC-keyed one — packets for a dead PF
                # have nowhere to land until the driver re-points them.
                raise DeviceGoneError(
                    f"octoNIC: PF {pf_id} is gone and MPFS fast-failover "
                    f"is disabled")
            # The MPFS is one switch in front of *all* PFs: it can steer
            # around a dead one in hardware, landing the flow on a
            # surviving PF's tables until the driver re-points the rule.
            pf_id = self.failover_pf(pf_id)
        return pf_id

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

    ``steer_rx`` — the per-batch hot path — memoises its full resolution
    (MPFS rule, PF, ARFS rule / RSS default queue) per ``(flow, dst_mac)``.
    Entries carry a stamp of the firmware + table versions, so any
    structural change (rule insert/remove/expiry, PF failure/recovery,
    queue registration) invalidates them; recency bookkeeping
    (``last_hit_at``) is still applied on cache hits through the live rule
    objects, so idle-expiry behaviour is bit-identical to the uncached
    path.
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
        #: Memoised steer_rx resolutions keyed by (flow, dst_mac).
        self._steer_cache: Dict[tuple, tuple] = {}
        #: Bumped on firmware-level steering state changes (PF liveness,
        #: default-queue registration); part of every cache stamp.
        self._fw_version = 0
        #: MPFS hardware fast-failover (§4.2): whether the switch may
        #: steer around a dead PF on its own.  The ``mpfs_fast_failover``
        #: component toggles this; standard firmware never consults it
        #: (a MAC-keyed MPFS has nowhere else to deliver).
        self.fast_failover = True

    def configure_fast_failover(self, enabled: bool) -> None:
        """Set the MPFS fast-failover capability, invalidating the steer
        memo if the setting actually changes (a cached resolution may
        have been made under the other policy)."""
        if enabled != self.fast_failover:
            self.fast_failover = enabled
            self._fw_version += 1

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
        entry = self._steer_cache.get((flow, dst_mac))
        if entry is not None:
            stamp, pf_id, mpfs_rule, arfs_rule, queue = entry
            if (stamp[0] == self._fw_version
                    and stamp[1] == self.mpfs.version
                    and stamp[2] == self.arfs[pf_id].version):
                # Recency bookkeeping must still happen on hits, or the
                # driver's idle-expiry worker would reap active flows.
                if mpfs_rule is not None:
                    mpfs_rule.last_hit_at = now
                if arfs_rule is not None:
                    arfs_rule.last_hit_at = now
                    return pf_id, arfs_rule.target
                return pf_id, queue
        pf_id, mpfs_rule = self._resolve_pf(flow, dst_mac, now)
        arfs_rule = self.arfs[pf_id].lookup_rule(flow)
        if arfs_rule is not None:
            arfs_rule.last_hit_at = now
            queue = arfs_rule.target
        else:
            defaults = self._default_queues.get(pf_id) or []
            if not defaults:
                raise LookupError(f"PF {pf_id} has no queues registered")
            queue = defaults[rss_hash(flow, len(defaults))]
        stamp = (self._fw_version, self.mpfs.version,
                 self.arfs[pf_id].version)
        self._steer_cache[(flow, dst_mac)] = (stamp, pf_id, mpfs_rule,
                                              arfs_rule, queue)
        return pf_id, queue

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int):
        """Personality hook: pick the PF for an arriving packet.  Returns
        ``(pf_id, mpfs_rule_or_None)`` — the live MPFS rule (if any) is
        kept in the steer cache so hits can refresh its recency."""
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

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int):
        pf_id = self.mpfs.steer(flow, dst_mac, now)
        if not self._pf_alive[pf_id]:
            # The MAC uniquely names this PF's netdev: with the PF gone
            # there is nowhere else to deliver (the NUDMA rigidity §3.3).
            raise DeviceGoneError(
                f"standard firmware: PF {pf_id} for {dst_mac} is gone")
        return pf_id, None


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

    def _resolve_pf(self, flow: Flow, dst_mac: str, now: int):
        rule = self.mpfs.steer_rule(flow)
        if rule is None:
            pf_id = self.mpfs.default_pf_id
        else:
            rule.last_hit_at = now
            pf_id = rule.target
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
        return pf_id, rule

"""The octoNIC team driver: IOctopus mode (§4.2).

The driver presents a multi-PF octoNIC as **one** netdevice.  The
teaming policy itself — per-core queues bound to the socket-local PF,
PF hot-unplug re-homing with drain-before-resteer, recovery — is the
device-generic :class:`~repro.device.team.OctoTeam`; this class adds
the NIC personality on top:

* XPS hands it transmits on the current core's queue -> the local PF.
* The ARFS migration callback triggers both a per-PF ARFS update and an
  IOctoRFS (flow -> PF) update, applied asynchronously by a kernel worker
  after the old queue drains, so packets never reorder (§4.2 "Receive").
* A periodic worker expires idle rules from the driver tables and the
  device, mirroring the Linux ARFS garbage collector.
* On failover/recovery, the deferred re-steer plan re-points every live
  ARFS and IOctoRFS rule at the surviving (or recovered) PF's tables.

Either way the netdev stays up at nonuniform-DMA (`remote`) throughput
instead of disappearing; on PF recovery the mapping is undone the same
way and full octopus throughput returns.
"""

from __future__ import annotations

from typing import List

from repro.device.team import OctoTeam, ResteerPlan
from repro.nic.device import NicDevice
from repro.nic.firmware import OctoFirmware
from repro.nic.packet import Flow
from repro.nic.rings import QueueSet, RxQueue
from repro.os_model.driver import NetDriver
from repro.pcie.fabric import PhysicalFunction
from repro.topology.machine import Core, Machine

#: Default idle time before a steering rule is garbage-collected.
RULE_IDLE_NS = 500_000_000  # 500 ms, matching ARFS defaults


class OctoTeamDriver(OctoTeam, NetDriver):
    """The IOctopus-mode team driver (one netdev over all PFs)."""

    name = "octo-team"
    team_label = "octoNIC"
    team_noun = "netdev"

    def __init__(self, machine: Machine, device: NicDevice,
                 allow_degraded: bool = False):
        NetDriver.__init__(self, machine, device)
        if not isinstance(device.firmware, OctoFirmware):
            raise TypeError(
                "OctoTeamDriver requires a device running OctoFirmware; "
                f"got {type(device.firmware).__name__}")
        self._init_team(machine, device, allow_degraded)
        self.queues = QueueSet(machine, machine.cores,
                               pf_for_core=self._pf_for_core)
        self._register_defaults()
        self._expiry_process = None
        #: Steering rules dropped by the expiry worker.
        self.rules_expired = 0
        self._team_listen()

    def dst_mac(self) -> str:
        return OctoFirmware.MAC

    def steer_rx(self, flow: Flow, core: Core,
                 immediate: bool = False) -> None:
        new_queue = self.rx_queue_for_core(core)
        pf_id = new_queue.pf.pf_id
        firmware: OctoFirmware = self.device.firmware
        # The flow's current queue may live on ANY PF's ARFS table (the
        # whole point of migration is that the PF changes).
        current_pf = firmware.mpfs.current_pf(flow)
        old_queue = (firmware.arfs[current_pf].lookup(flow)
                     if current_pf is not None else None)

        def apply():
            now = self.env.now
            firmware.arfs_update(pf_id, flow, new_queue, now=now)
            firmware.ioctorfs_update(flow, pf_id, now=now)

        if immediate or old_queue is None or not self.no_reorder_resteer:
            apply()
            self.steering_updates += 1
        else:
            def deferred():
                # No-reorder rule: the old Rx queue must have drained by
                # the time the ARFS/IOctoRFS update lands.
                self.machine.tracer.emit(
                    self.env.now, self.name, "steer.applied",
                    f"flow={flow.src_port}->{flow.dst_port} "
                    f"pf={pf_id} residual={old_queue.outstanding}")
                apply()
            self._apply_after(self._drain_delay_ns(old_queue), deferred)

    # ------------------------------------------------- teaming personality

    def _team_queues(self) -> List:
        return self.queues.rx + self.queues.tx

    def _drainable(self, queues: List) -> List:
        # Only receive queues gate the re-steer: §4.2's no-reorder rule
        # is about packets already DMA-written to the old Rx queue.
        return [q for q in queues if isinstance(q, RxQueue)]

    def _after_rehome(self) -> None:
        self._register_defaults()

    def _register_defaults(self) -> None:
        """(Re-)register each surviving PF's default queue list with the
        firmware; dead PFs are left with an empty list."""
        firmware = self.device.firmware
        for pf in self.device.pfs:
            local_rx = [q for q in self.queues.rx
                        if q.pf is pf] if pf.alive else []
            firmware.register_default_queues(pf.pf_id, local_rx)

    def _plan_failover_resteer(self, pf: PhysicalFunction,
                               fallback: PhysicalFunction) -> ResteerPlan:
        firmware: OctoFirmware = self.device.firmware
        arfs_rules = firmware.arfs[pf.pf_id].snapshot()
        flows = firmware.mpfs.flows_on_pf(pf.pf_id)

        def apply():
            now = self.env.now
            for flow, queue in arfs_rules:
                firmware.arfs_remove(pf.pf_id, flow)
                firmware.arfs_update(fallback.pf_id, flow, queue, now=now)
            for flow in flows:
                firmware.ioctorfs_update(flow, fallback.pf_id, now=now)

        return apply, f"flows={len(flows)} arfs={len(arfs_rules)}"

    def _plan_recovery_resteer(self, pf: PhysicalFunction,
                               drainable: List) -> ResteerPlan:
        firmware: OctoFirmware = self.device.firmware
        # Rules whose queue just moved home: re-point them to the
        # recovered PF's tables once the interim queue drains.
        moved_queues = set(id(q) for q in drainable)
        resteer = []
        for other_id in range(firmware.num_pfs):
            if other_id == pf.pf_id:
                continue
            for flow, queue in firmware.arfs[other_id].snapshot():
                if id(queue) in moved_queues:
                    resteer.append((other_id, flow, queue))

        def apply():
            now = self.env.now
            for old_pf_id, flow, queue in resteer:
                firmware.arfs_remove(old_pf_id, flow)
                firmware.arfs_update(pf.pf_id, flow, queue, now=now)
                firmware.ioctorfs_update(flow, pf.pf_id, now=now)

        return apply, f"flows={len(resteer)}"

    # --------------------------------------------------------- rule expiry

    def start_expiry_worker(self, period_ns: int = 100_000_000,
                            idle_ns: int = RULE_IDLE_NS) -> None:
        """Start the periodic kernel worker that deletes expired rules
        from the driver tables and the device (§4.2)."""
        if self._expiry_process is not None:
            raise RuntimeError("expiry worker already running")

        firmware: OctoFirmware = self.device.firmware

        def worker():
            while True:
                yield period_ns
                now = self.env.now
                expired = set(firmware.expire_idle(now, idle_ns))
                for pf_id in range(firmware.num_pfs):
                    expired.update(
                        firmware.arfs[pf_id].expire_idle(now, idle_ns))
                self.rules_expired += len(expired)

        self._expiry_process = self.env.process(worker(),
                                                name="octo-expiry")

"""NVMe block driver: per-core queue pairs and the submission path.

The driver is the storage personality of the octo-device core: the
submission path rings doorbells through the shared
:class:`~repro.device.paths.DoorbellPath`, completions arrive as
moderated per-QP interrupts through the shared
:class:`~repro.device.paths.CompletionPath`, and ``octo_mode`` mixes in
the generic :class:`~repro.device.team.OctoTeam` so the dual-port
octoSSD gets the same PF failover (re-home to the surviving port, drain,
recover) the octoNIC has.
"""

from __future__ import annotations

from typing import Dict, List

from repro.device.driver import DeviceDriver
from repro.device.team import OctoTeam, ResteerPlan
from repro.nvme.device import (
    DEFAULT_QP_DATA_BYTES,
    NvmeController,
    NvmeQueuePair,
)
from repro.pcie.fabric import PhysicalFunction
from repro.topology.machine import Core, Machine


class NvmeDriver(OctoTeam, DeviceDriver):
    """Host-side NVMe driver for one controller.

    ``octo_mode=True`` applies the IOctopus principle to storage:
    commands are issued through (and data DMAed via) the port local to
    the submitting core's socket — the octoSSD of §5.4 — and the team
    fails over to the surviving port when one is hot-unplugged.
    ``octo_mode=False`` is the stock single-port discipline: every QP
    homes on port 0, and losing it means losing the blockdev until the
    port recovers.
    """

    name = "nvme-driver"
    team_label = "octoSSD"
    team_noun = "blockdev"

    def __init__(self, machine: Machine, controller: NvmeController,
                 octo_mode: bool = False, allow_degraded: bool = False,
                 qp_data_bytes: int = DEFAULT_QP_DATA_BYTES):
        if octo_mode and not controller.dual_port:
            raise ValueError("octo_mode needs a dual-port controller")
        DeviceDriver.__init__(self, machine, controller)
        self.octo_mode = octo_mode
        self.qp_data_bytes = qp_data_bytes
        self._qps: Dict[int, NvmeQueuePair] = {}
        self._next_qp = 0
        if octo_mode:
            self._init_team(machine, controller, allow_degraded)
            self._team_listen()
        else:
            self.failovers = 0
            self.recoveries = 0

    @property
    def controller(self) -> NvmeController:
        return self.device

    # ------------------------------------------------------- queue pairs

    def qp_for_core(self, core: Core) -> NvmeQueuePair:
        qp = self._qps.get(core.core_id)
        if qp is None:
            qp = NvmeQueuePair(self._next_qp, core, self.machine,
                               self._home_pf(core),
                               data_bytes=self.qp_data_bytes)
            self._next_qp += 1
            self._qps[core.core_id] = qp
        return qp

    def _home_pf(self, core: Core) -> PhysicalFunction:
        if self.octo_mode:
            return self._pf_for_core(core)
        return self.device.pfs[0]

    # -------------------------------------------------------- submission

    def _submit(self, core: Core, nbytes: int, op: str,
                ncmds: int = 1) -> tuple:
        """Issue ``ncmds`` identical commands as one submission batch;
        returns (cpu_ns, dev_ns).

        The CPU side is one SQ doorbell for the whole batch, a moderated
        completion interrupt, and one CQ-entry read per command (DDIO-hot
        when the serving PF is local, ~80 ns misses when it is not).
        """
        if ncmds < 1:
            raise ValueError(f"ncmds must be >= 1, got {ncmds}")
        qp = self.qp_for_core(core)
        node = core.node_id
        # One flow per submission batch: the doorbell/completion paths and
        # the controller contribute their steps while it is active.
        tracer = self.machine.tracer
        flow = (tracer.begin_flow(self.machine.now) if tracer.enabled
                else None)
        prep = ncmds * self.machine.spec.software.fio_request_ns
        if flow is not None:
            flow.step(f"core{node}.app", f"nvme.{op}.submit", prep,
                      {"cmds": ncmds, "bytes": nbytes}, stage="stack")
        cpu = prep
        cpu += self.doorbell.ring(qp, node)
        if op == "read":
            dev = self.device.read(qp, nbytes, ncmds=ncmds)
        elif op == "write":
            dev = self.device.write(qp, nbytes, ncmds=ncmds)
        else:
            raise ValueError(f"unknown NVMe op {op!r}")
        cpu += self.completion.interrupt(qp, ncmds, 1, self.machine.now)
        cpu += self.completion.consume(qp, ncmds, node)
        qp.outstanding = max(0, qp.outstanding - ncmds)
        if flow is not None:
            flow.finish(f"core{node}.app", f"nvme.{op}.complete", 0,
                        {"cpu_ns": cpu, "dev_ns": dev})
            flow.seal(cpu + dev)
        return cpu, dev

    def submit_read(self, core: Core, nbytes: int, ncmds: int = 1) -> tuple:
        """Issue read commands; returns (cpu_ns, dev_ns)."""
        return self._submit(core, nbytes, "read", ncmds)

    def submit_write(self, core: Core, nbytes: int,
                     ncmds: int = 1) -> tuple:
        """Issue write commands; returns (cpu_ns, dev_ns)."""
        return self._submit(core, nbytes, "write", ncmds)

    # ------------------------------------------------- teaming personality

    def _team_queues(self) -> List[NvmeQueuePair]:
        return list(self._qps.values())

    # NVMe has no steering rule tables: re-homing the QPs *is* the whole
    # failover, so the deferred plans are no-ops (the drain still gates
    # the "applied" event and the failover/recovery counters).

    def _plan_failover_resteer(self, pf: PhysicalFunction,
                               fallback: PhysicalFunction) -> ResteerPlan:
        return (lambda: None), "resteer=none"

    def _plan_recovery_resteer(self, pf: PhysicalFunction,
                               drainable: List) -> ResteerPlan:
        return (lambda: None), "resteer=none"

    def _drain_delay_ns(self, queue: NvmeQueuePair) -> int:
        """Time until the QP's outstanding commands complete, plus the
        worker's update cost."""
        costs = self.machine.spec.software
        return (costs.steering_update_ns
                + queue.outstanding * costs.fio_request_ns)

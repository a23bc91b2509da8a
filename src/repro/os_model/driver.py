"""Netdevice drivers.

:class:`NetDriver` is the interface the network stack talks to; retry
backoff and the deferred-steering worker come from the generic
:class:`~repro.device.driver.DeviceDriver` base.  The
:class:`StandardDriver` is the stock vendor driver: it binds **one PF**
to one netdev, so every queue it owns DMAs through that PF wherever the
consuming thread runs — this is what makes the `remote` configuration
remote.  The octoNIC team driver lives in :mod:`repro.core.teaming`.
"""

from __future__ import annotations

from typing import Optional

from repro.device.driver import DeviceDriver
from repro.nic.device import NicDevice
from repro.nic.packet import Flow
from repro.nic.rings import QueueSet, RxQueue, TxQueue
from repro.topology.machine import Core, Machine


class NetDriver(DeviceDriver):
    """Interface between the network stack and a NIC."""

    name = "base"

    def __init__(self, machine: Machine, device: NicDevice):
        super().__init__(machine, device)
        self.queues: Optional[QueueSet] = None

    # -------------------------------------------------------------- API

    def dst_mac(self) -> str:
        """The MAC remote peers address this netdev by."""
        raise NotImplementedError

    def rx_queue_for_core(self, core: Core) -> RxQueue:
        """The Rx queue serving ``core``.  Runs once per burst, so it
        reads the QueueSet's core map itself."""
        queues = self.queues
        if queues is None:
            self._check_queues_configured()
        queue = queues.rx_by_core.get(core)
        if queue is None:
            raise LookupError(f"no Rx queue for core {core.core_id}")
        return queue

    def tx_queue_for_core(self, core: Core) -> TxQueue:
        """The Tx queue serving ``core`` (see :meth:`rx_queue_for_core`)."""
        queues = self.queues
        if queues is None:
            self._check_queues_configured()
        queue = queues.tx_by_core.get(core)
        if queue is None:
            raise LookupError(f"no Tx queue for core {core.core_id}")
        return queue

    def _check_queues_configured(self) -> None:
        """Raise for a netdev with no queues; the lookups test
        ``queues`` inline and call this only to raise."""
        if self.queues is None:
            raise RuntimeError(
                f"{type(self).__name__} ({self.name!r}) has no queues "
                f"configured; subclasses must build a QueueSet before "
                f"the netdev is used")

    def steer_rx(self, flow: Flow, core: Core,
                 immediate: bool = False) -> None:
        """Point ``flow`` at the queue serving ``core``.

        Immediate on socket creation; on migration it is deferred until
        the old queue drains (avoiding out-of-order delivery) and applied
        by an asynchronous kernel worker (§4.2).
        """
        new_queue = self.rx_queue_for_core(core)
        # The PF at call time: a deferred update installs there even if
        # a failover re-homes the queue before it applies.
        pf_id = new_queue.pf.pf_id
        old_queue = self._current_rx_queue(flow)

        def apply():
            self._install_rx_rules(flow, new_queue, pf_id, self.env.now)

        if immediate or old_queue is None or not self.no_reorder_resteer:
            apply()
            self.steering_updates += 1
            return

        def deferred():
            # No-reorder rule: the old Rx queue must have drained by the
            # time the update lands.
            self.machine.tracer.emit(
                self.env.now, self.name, "steer.applied",
                f"flow={flow.src_port}->{flow.dst_port} "
                f"pf={pf_id} residual={old_queue.outstanding}")
            apply()
        self._apply_after(self._drain_delay_ns(old_queue), deferred)

    # ------------------------------------------------- personality hooks

    def _current_rx_queue(self, flow: Flow) -> Optional[RxQueue]:
        """The queue the NIC steers ``flow`` to now, or None if no rule
        names one.  Read through ``RuleTable.target``: probing must not
        refresh a rule's recency."""
        raise NotImplementedError

    def _install_rx_rules(self, flow: Flow, queue: RxQueue, pf_id: int,
                          now: int) -> None:
        """Install the rules that steer ``flow`` to ``queue`` on PF
        ``pf_id``: that PF's ARFS rule."""
        self.device.firmware.arfs[pf_id].update(flow, queue, now)

    # --------------------------------------------------------- internals

    def _drain_delay_ns(self, old_queue: RxQueue) -> int:
        """Time until the old queue empties plus the worker's update cost."""
        per_pkt = self.machine.spec.software.rx_pkt_ns
        return (self.machine.spec.software.steering_update_ns
                + old_queue.outstanding * per_pkt)


class StandardDriver(NetDriver):
    """Stock vendor driver: one netdev per PF (Fig 5a/5b)."""

    name = "standard"

    def __init__(self, machine: Machine, device: NicDevice, pf_id: int):
        super().__init__(machine, device)
        if not 0 <= pf_id < len(device.pfs):
            raise ValueError(f"pf_id {pf_id} out of range")
        self.pf_id = pf_id
        pf = device.pf(pf_id)
        self.queues = QueueSet(machine, machine.cores,
                               pf_for_core=lambda core: pf)
        device.firmware.register_default_queues(pf_id, self.queues.rx)

    def dst_mac(self) -> str:
        return self.device.firmware.mac_for_pf(self.pf_id)

    def _current_rx_queue(self, flow: Flow) -> Optional[RxQueue]:
        return self.device.firmware.arfs[self.pf_id].target(flow)

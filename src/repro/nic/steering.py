"""NIC-side steering tables: RSS, ARFS, and the multi-PF switch (MPFS).

The paper's prototype composes two existing NIC features (§4.1):

* **ARFS** tables map a flow 5-tuple to an Rx queue, *per PF*.
* The **MPFS** — an integrated multi-PF Ethernet switch — steers arriving
  packets to a PF.  Standard firmware keys it by destination MAC; the
  octoNIC firmware keys it by flow 5-tuple instead (IOctoRFS).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.nic.packet import Flow


def rss_hash(flow: Flow, buckets: int) -> int:
    """Deterministic stand-in for the Toeplitz RSS hash."""
    if buckets < 1:
        raise ValueError(f"need >= 1 bucket, got {buckets}")
    return zlib.crc32(repr(flow.as_tuple()).encode()) % buckets


@dataclass
class SteeringRule:
    """One ARFS/IOctoRFS table entry."""

    flow: Flow
    target: object           # an RxQueue (ARFS) or a PF id (IOctoRFS)
    updated_at: int = 0
    last_hit_at: int = 0


class ArfsTable:
    """Per-PF flow -> Rx queue map (Accelerated Receive Flow Steering)."""

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rules: Dict[Flow, SteeringRule] = {}
        #: Bumped on every structural change; read by
        #: ``BaseFirmware.steering_epoch``.
        self.version = 0

    def __len__(self) -> int:
        return len(self._rules)

    def update(self, flow: Flow, queue, now: int = 0) -> None:
        """Insert or re-point a rule (the OS's ARFS callback path)."""
        self.version += 1
        rule = self._rules.get(flow)
        if rule is None:
            if len(self._rules) >= self.capacity:
                self._expire_one()
            self._rules[flow] = SteeringRule(flow, queue, updated_at=now,
                                             last_hit_at=now)
        else:
            rule.target = queue
            rule.updated_at = now

    def lookup(self, flow: Flow, now: int = 0):
        rule = self._rules.get(flow)
        if rule is None:
            return None
        rule.last_hit_at = now
        return rule.target

    def remove(self, flow: Flow) -> bool:
        if self._rules.pop(flow, None) is None:
            return False
        self.version += 1
        return True

    def snapshot(self) -> List[tuple]:
        """Stable (flow, queue) pairs — safe to iterate while mutating
        the table (used by the failover path to migrate rules)."""
        return [(flow, rule.target) for flow, rule in self._rules.items()]

    def expire_idle(self, now: int, idle_ns: int) -> List[Flow]:
        """Drop rules idle longer than ``idle_ns`` (the periodic kernel
        worker the driver runs, §4.2).  Returns expired flows."""
        expired = [flow for flow, rule in self._rules.items()
                   if now - rule.last_hit_at > idle_ns]
        for flow in expired:
            del self._rules[flow]
        if expired:
            self.version += 1
        return expired

    def _expire_one(self) -> None:
        oldest = min(self._rules.values(), key=lambda r: r.last_hit_at)
        del self._rules[oldest.flow]
        self.version += 1


class Mpfs:
    """The multi-PF Ethernet switch.

    ``mode="mac"`` reproduces standard firmware: the destination MAC
    uniquely picks a PF, so a flow's PF can never change — the root cause
    of NUDMA (§3.3).  ``mode="flow"`` is the octoNIC modification: a
    5-tuple table picks the PF, with a default for unmapped flows.
    """

    def __init__(self, mode: str, default_pf_id: int = 0):
        if mode not in ("mac", "flow"):
            raise ValueError(f"unknown MPFS mode {mode!r}")
        self.mode = mode
        self.default_pf_id = default_pf_id
        self._mac_table: Dict[str, int] = {}
        self._flow_table: Dict[Flow, SteeringRule] = {}
        #: Bumped on every structural change; read by
        #: ``BaseFirmware.steering_epoch``.
        self.version = 0

    # ----------------------------------------------------------- mac mode

    def bind_mac(self, mac: str, pf_id: int) -> None:
        self._mac_table[mac] = pf_id
        self.version += 1

    # ---------------------------------------------------------- flow mode

    def update_flow(self, flow: Flow, pf_id: int, now: int = 0) -> None:
        if self.mode != "flow":
            raise ValueError("flow rules need an IOctoRFS-mode MPFS")
        self.version += 1
        rule = self._flow_table.get(flow)
        if rule is None:
            self._flow_table[flow] = SteeringRule(flow, pf_id,
                                                  updated_at=now,
                                                  last_hit_at=now)
        else:
            rule.target = pf_id
            rule.updated_at = now

    def remove_flow(self, flow: Flow) -> bool:
        if self._flow_table.pop(flow, None) is None:
            return False
        self.version += 1
        return True

    def expire_idle(self, now: int, idle_ns: int) -> List[Flow]:
        expired = [flow for flow, rule in self._flow_table.items()
                   if now - rule.last_hit_at > idle_ns]
        for flow in expired:
            del self._flow_table[flow]
        if expired:
            self.version += 1
        return expired

    def flow_rule_count(self) -> int:
        return len(self._flow_table)

    def current_pf(self, flow: Flow) -> Optional[int]:
        """The PF a flow is currently steered to, or None if unmapped."""
        rule = self._flow_table.get(flow)
        return None if rule is None else rule.target

    def flows_on_pf(self, pf_id: int) -> List[Flow]:
        """All flows currently steered to ``pf_id`` (failover re-steer)."""
        return [flow for flow, rule in self._flow_table.items()
                if rule.target == pf_id]

    # ------------------------------------------------------------- lookup

    def steer(self, flow: Flow, dst_mac: str, now: int = 0) -> int:
        """Pick the PF for an arriving packet."""
        if self.mode == "mac":
            return self._mac_table.get(dst_mac, self.default_pf_id)
        rule = self._flow_table.get(flow)
        if rule is None:
            return self.default_pf_id
        rule.last_hit_at = now
        return rule.target

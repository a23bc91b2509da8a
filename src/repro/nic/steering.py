"""NIC-side steering tables: the RSS hash and the flow-rule table.

The paper's prototype builds IOctoRFS from two existing NIC features
(§4.1), and both are a :class:`RuleTable`:

* each PF's **ARFS** table maps a flow 5-tuple to an Rx queue;
* the octoNIC's **IOctoRFS** table — the multi-PF Ethernet switch
  (MPFS) re-keyed by flow 5-tuple — maps a flow to a PF.

Standard firmware keys its MPFS by destination MAC instead, a map fixed
when the firmware is built (:class:`~repro.nic.firmware.StandardFirmware`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.nic.packet import Flow

#: Rules one table holds; inserting past it evicts the least recently
#: hit rule.
RULE_CAPACITY = 65536


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
    last_hit_at: int = 0


class RuleTable:
    """A flow -> target map with LRU capacity and idle expiry.

    :meth:`lookup` is the packet path and refreshes the rule's recency,
    so the driver's idle-expiry worker spares active flows;
    :meth:`target` reads the current target and changes nothing.
    """

    def __init__(self):
        self._rules: Dict[Flow, SteeringRule] = {}
        #: Bumped on every structural change; read by
        #: ``BaseFirmware.steering_epoch``.
        self.version = 0

    def __len__(self) -> int:
        return len(self._rules)

    def update(self, flow: Flow, target, now: int) -> None:
        """Insert or re-point a rule (the driver's steering update)."""
        self.version += 1
        rule = self._rules.get(flow)
        if rule is None:
            if len(self._rules) >= RULE_CAPACITY:
                self._expire_one()
            self._rules[flow] = SteeringRule(flow, target, last_hit_at=now)
        else:
            rule.target = target

    def lookup(self, flow: Flow, now: int):
        """The flow's target for an arriving batch, or None."""
        rule = self._rules.get(flow)
        if rule is None:
            return None
        rule.last_hit_at = now
        return rule.target

    def target(self, flow: Flow) -> Optional[object]:
        """The flow's current target, or None; its recency is untouched."""
        rule = self._rules.get(flow)
        return None if rule is None else rule.target

    def remove(self, flow: Flow) -> bool:
        if self._rules.pop(flow, None) is None:
            return False
        self.version += 1
        return True

    def snapshot(self) -> List[tuple]:
        """Stable (flow, target) pairs — safe to iterate while mutating
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

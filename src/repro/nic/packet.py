"""Flows and packets.

An IP flow is identified by its 5-tuple (§2.3, footnote 1).  The simulator
moves *batches* of packets belonging to a flow, not individual packet
objects, which keeps 100 Gb/s workloads tractable while preserving
per-packet cost accounting.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Tuple

#: Bytes of TCP/IP/Ethernet headers carried per packet on the wire.
HEADER_BYTES = 66
#: Preamble + inter-frame gap + CRC overhead per packet on the wire.
FRAMING_BYTES = 24
#: Minimum Ethernet payload.
MIN_PAYLOAD = 46


class Flow(namedtuple("Flow", "src_ip src_port dst_ip dst_port protocol")):
    """A transport flow 5-tuple.

    A tuple, so the hash and equality every steered batch's rule-table
    probe runs are computed in C: ``hash(flow)`` is the hash of its
    5-tuple, and flows order field by field.
    """

    __slots__ = ()

    def __new__(cls, src_ip: str, src_port: int, dst_ip: str,
                dst_port: int, protocol: str = "tcp") -> "Flow":
        for port in (src_port, dst_port):
            if not 0 < port < 65536:
                raise ValueError(f"invalid port {port}")
        if protocol not in ("tcp", "udp"):
            raise ValueError(f"unsupported protocol {protocol!r}")
        return tuple.__new__(cls, (src_ip, src_port, dst_ip, dst_port,
                                   protocol))

    @classmethod
    def _make(cls, iterable) -> "Flow":
        # ``_replace`` builds through here: validate like the constructor.
        return cls(*iterable)

    @classmethod
    def make(cls, index: int, protocol: str = "tcp") -> "Flow":
        """A distinct, deterministic flow for tests and workloads."""
        return cls(src_ip="10.0.0.1", src_port=10_000 + index,
                   dst_ip="10.0.0.2", dst_port=5201, protocol=protocol)

    def reversed(self) -> "Flow":
        return Flow(self.dst_ip, self.dst_port, self.src_ip, self.src_port,
                    self.protocol)

    def as_tuple(self) -> Tuple[str, int, str, int, str]:
        return tuple(self)


def wire_bytes(payload: int) -> int:
    """On-wire size of a packet carrying ``payload`` bytes."""
    if payload < 0:
        raise ValueError(f"negative payload {payload}")
    return max(payload, MIN_PAYLOAD) + HEADER_BYTES + FRAMING_BYTES


def packets_for(message_bytes: int, mtu_payload: int) -> int:
    """Number of MTU-limited packets needed to carry a message."""
    if message_bytes <= 0:
        return 1
    return -(-message_bytes // mtu_payload)  # ceil division

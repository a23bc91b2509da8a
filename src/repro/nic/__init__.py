"""NIC models: packets, queues, steering, firmwares, wire, device."""

from repro.nic.device import PIPELINE_NS_PER_PKT, NicDevice
from repro.nic.firmware import BaseFirmware, OctoFirmware, StandardFirmware
from repro.nic.packet import (
    FRAMING_BYTES,
    HEADER_BYTES,
    Flow,
    packets_for,
    wire_bytes,
)
from repro.nic.rings import (
    RING_ENTRIES,
    RX_BUFFER_SLOT,
    NicQueue,
    QueueSet,
    RxQueue,
    TxQueue,
)
from repro.nic.steering import RuleTable, SteeringRule, rss_hash
from repro.nic.wire import EthernetWire

__all__ = [
    "BaseFirmware",
    "EthernetWire",
    "FRAMING_BYTES",
    "Flow",
    "HEADER_BYTES",
    "NicDevice",
    "NicQueue",
    "OctoFirmware",
    "PIPELINE_NS_PER_PKT",
    "QueueSet",
    "RING_ENTRIES",
    "RX_BUFFER_SLOT",
    "RuleTable",
    "RxQueue",
    "SteeringRule",
    "StandardFirmware",
    "TxQueue",
    "packets_for",
    "rss_hash",
    "wire_bytes",
]

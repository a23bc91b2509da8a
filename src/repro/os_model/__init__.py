"""OS model: threads, scheduler, netdevice drivers, network stack."""

from repro.os_model.driver import NetDriver, StandardDriver
from repro.os_model.netstack import COALESCE_PKTS, MSS, NetworkStack, Socket
from repro.os_model.scheduler import Scheduler
from repro.os_model.thread import SimThread

__all__ = [
    "COALESCE_PKTS",
    "MSS",
    "NetDriver",
    "NetworkStack",
    "Scheduler",
    "SimThread",
    "Socket",
    "StandardDriver",
]

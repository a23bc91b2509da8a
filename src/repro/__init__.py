"""IOctopus reproduction: a NUDMA-accurate simulator and the octoNIC stack.

This package reproduces *IOctopus: Outsmarting Nonuniform DMA* (Smolyar et
al., ASPLOS 2020) as a discrete-event simulation of multi-socket servers:
CPUs, LLC with DDIO, DRAM controllers, the QPI/UPI interconnect, a PCIe
fabric with bifurcated multi-PF devices, a multi-queue NIC with standard
and octoNIC firmware, an OS model (scheduler, XPS/ARFS network stack,
drivers), NVMe, and every workload the paper evaluates with.

Quick tour::

    from repro import Testbed, TcpStream, Flow

    testbed = Testbed("ioctopus")          # or "local" / "remote"
    workload = TcpStream(testbed.server, testbed.server_core(0),
                         Flow.make(0), 65536, "rx",
                         duration_ns=40_000_000)
    testbed.run(48_000_000)
    print(workload.throughput_gbps())

See ``repro.experiments`` (and the ``ioctopus-repro`` CLI) for the code
that regenerates every figure in the paper's evaluation.
"""

from repro.core import Testbed
from repro.core.teaming import OctoTeamDriver
from repro.experiments import all_experiment_names, get_experiment
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.nic import (
    EthernetWire,
    Flow,
    NicDevice,
    OctoFirmware,
    StandardFirmware,
)
from repro.nvme import NvmeController, NvmeDriver
from repro.os_model import NetworkStack, Scheduler, StandardDriver
from repro.pcie import PhysicalFunction, bifurcate
from repro.topology import Machine, dell_r730, dell_r730_spec, dell_skylake
from repro.workloads import (
    FioReader,
    MemcachedServer,
    PageRank,
    Pktgen,
    RequestResponse,
    TcpStream,
    spawn_stream_pairs,
)

__version__ = "1.0.0"

__all__ = [
    "EthernetWire",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FioReader",
    "Flow",
    "Machine",
    "MemcachedServer",
    "NetworkStack",
    "NicDevice",
    "NvmeController",
    "NvmeDriver",
    "OctoFirmware",
    "OctoTeamDriver",
    "PageRank",
    "PhysicalFunction",
    "Pktgen",
    "RequestResponse",
    "Scheduler",
    "StandardDriver",
    "StandardFirmware",
    "TcpStream",
    "Testbed",
    "all_experiment_names",
    "bifurcate",
    "dell_r730",
    "dell_r730_spec",
    "dell_skylake",
    "get_experiment",
    "spawn_stream_pairs",
]

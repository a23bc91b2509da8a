"""Calibration constants for the simulated machines.

This module is the **only** place where hardware and software cost numbers
live.  Every experiment runs against the same constants; nothing is tuned
per-figure.  Hardware numbers come from the paper's testbed description
(§5 "Experimental setup") and public datasheets; software per-operation
costs are calibrated once against the absolute numbers the paper reports
(e.g. pktgen's 4.1 Mpps local / 3.08 Mpps remote single-core rates, §5.1.1,
whose difference the authors attribute to one ~80 ns LLC miss per packet).

Units: time is ns, bandwidth is bytes/sec, sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import CACHELINE, GB, KB, MB, MTU, TSO_SEGMENT

__all__ = [
    "CACHELINE", "GB", "KB", "MB", "MTU", "TSO_SEGMENT",
    "CpuSpec", "MemorySpec", "InterconnectSpec", "PcieSpec",
    "SoftwareCosts", "MachineSpec", "dell_r730_spec", "dell_skylake_spec",
]


@dataclass(frozen=True)
class CpuSpec:
    """One socket's worth of CPU."""

    cores: int
    ghz: float
    llc_bytes: int
    #: DDIO may allocate into only a slice of the LLC (2 ways of 20 on
    #: real Intel parts, here expressed as a fraction).
    ddio_llc_fraction: float = 0.10


@dataclass(frozen=True)
class MemorySpec:
    """One node's DRAM subsystem."""

    bytes_per_sec: float          # achievable node DRAM bandwidth
    #: Extra latency of an LLC miss served by local DRAM, over an LLC hit.
    #: §5.1.1: "Reading this entry from memory costs about 80 ns, which is
    #: essentially the delta between the per-packet costs."
    miss_latency_ns: int = 80


@dataclass(frozen=True)
class InterconnectSpec:
    """Socket interconnect (QPI for Broadwell, UPI for Skylake)."""

    bytes_per_sec_per_direction: float
    crossing_latency_ns: int = 70  # one-way, per crossing
    #: Cap on congestion-driven latency inflation.  UPI's arbitration
    #: degrades more gracefully than QPI's, hence the lower Skylake cap.
    max_latency_inflation: float = 20.0


@dataclass(frozen=True)
class PcieSpec:
    """A PCIe attachment point."""

    gen: int = 3
    lanes: int = 16
    #: Effective payload bytes/sec per lane (PCIe gen3: 8 GT/s, 128b/130b,
    #: ~85% TLP efficiency => ~0.85 GB/s/lane).
    bytes_per_sec_per_lane: float = 0.85e9
    round_trip_ns: int = 400      # doorbell-to-DMA-start round trip


@dataclass(frozen=True)
class SoftwareCosts:
    """Per-operation CPU costs of the (simulated) Linux 4.14 I/O stack.

    Calibrated once against the paper's single-core absolute numbers:

    * ``pktgen_pkt_ns = 244``: 1e9/244 = 4.1 Mpps, the paper's local rate.
      The remote rate then *emerges* as 1e9/(244+80) = 3.09 Mpps from the
      completion-read LLC miss — matching the paper's 3.08 Mpps.
    * TCP Rx: 260 ns/packet softirq+TCP cost plus a 0.13 ns/B copy gives
      ~23 Gb/s local single-core at 64 KB messages (paper: ~23) and, with
      the emergent remote penalties, ~18.5 Gb/s remote (ratio ~1.26).
    * TCP Tx: a 0.9 us per-64KB-TSO-segment cost plus the same copy rate
      gives ~47 Gb/s for both placements (paper: both ~47, Fig 7).
    """

    #: Cost of one socket-API round (syscall entry/exit, fd work).
    syscall_ns: int = 450
    #: Per-packet receive-side protocol cost (driver + softirq + TCP).
    rx_pkt_ns: int = 260
    #: Per-TSO-segment transmit-side cost (qdisc + TCP + doorbell).
    tx_segment_ns: int = 900
    #: Per-packet transmit cost when TSO is off (e.g. small sends).
    tx_pkt_ns: int = 260
    #: memcpy throughput when source and destination are cache-resident.
    copy_ns_per_byte: float = 0.13
    #: Extra stall per cache line streamed from local DRAM (prefetchers
    #: hide most of the miss; ~2.5 ns/line residual).
    dram_stream_stall_ns_per_line: float = 2.5
    #: pktgen's per-packet cost (descriptor write, doorbell amortised,
    #: completion read *hit*); misses are added by the memory system.
    pktgen_pkt_ns: int = 244
    #: Interrupt entry + NAPI poll schedule cost.
    irq_ns: int = 900
    #: Waking a blocked thread (scheduler enqueue + context switch).
    wakeup_ns: int = 1100
    #: UDP per-datagram stack cost (sockperf path).
    udp_pkt_ns: int = 250
    #: memcached per-request CPU outside of networking (parse, hash, LRU).
    memcached_req_ns: int = 2300
    #: ARFS / IOctoRFS rule update cost on the kernel worker.
    steering_update_ns: int = 2000
    #: STREAM kernel instruction cost (caps one thread at ~5.9 GB/s).
    stream_cpu_ns_per_byte: float = 0.17
    #: PageRank per-byte CPU cost over its edge arrays (the kernel is
    #: memory-bound; most of its time is the random-gather misses).
    pagerank_cpu_ns_per_byte: float = 0.05
    #: fio per-request submission/completion CPU cost (io_submit path).
    fio_request_ns: int = 4000


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of a simulated server."""

    name: str
    num_nodes: int
    cpu: CpuSpec
    memory: MemorySpec
    interconnect: InterconnectSpec
    pcie: PcieSpec = field(default_factory=PcieSpec)
    software: SoftwareCosts = field(default_factory=SoftwareCosts)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")


def dell_r730_spec() -> MachineSpec:
    """The paper's networking testbed (§5): Dell PowerEdge R730,
    2x 14-core Xeon E5-2660 v4 (Broadwell) @ 2.0 GHz, 35 MB LLC,
    4x16 GB DDR4-2400 per socket, 2x 9.6 GT/s QPI links."""
    return MachineSpec(
        name="dell-r730-broadwell",
        num_nodes=2,
        cpu=CpuSpec(cores=14, ghz=2.0, llc_bytes=35 * MB),
        # 4 channels DDR4-2400 = 76.8 GB/s peak; ~60 GB/s achievable.
        memory=MemorySpec(bytes_per_sec=60e9),
        # 2 QPI links x 9.6 GT/s x 2 B = 38.4 GB/s raw per direction;
        # ~75% protocol efficiency => ~28 GB/s usable.
        interconnect=InterconnectSpec(bytes_per_sec_per_direction=28e9,
                                      crossing_latency_ns=70),
    )


def dell_skylake_spec() -> MachineSpec:
    """The paper's NVMe testbed (§5.4): 2x 24-core Xeon Platinum 8160
    (Skylake), 2x 10.4 GT/s UPI links, 6x8 GB per socket."""
    return MachineSpec(
        name="dell-skylake-8160",
        num_nodes=2,
        cpu=CpuSpec(cores=24, ghz=2.1, llc_bytes=33 * MB),
        # 6 channels DDR4-2666 = 128 GB/s peak; ~100 GB/s achievable.
        memory=MemorySpec(bytes_per_sec=100e9),
        # 2 UPI links x 10.4 GT/s x 2 B ~= 41.6 GB/s raw; ~75% usable.
        interconnect=InterconnectSpec(bytes_per_sec_per_direction=31e9,
                                      crossing_latency_ns=65,
                                      max_latency_inflation=5.5),
    )

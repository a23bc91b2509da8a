"""GAP PageRank as the co-location victim (§5.2, Fig 13).

16 threads, 8 pinned to each CPU, scan a graph whose pages are spread
across both nodes — so half their traffic crosses the interconnect and is
slowed by whatever the co-located I/O workload does to the QPI and the
memory controllers.  The benchmark has a **fixed amount of work**; the
reported metric is completion time.
"""

from __future__ import annotations

from typing import List

from repro.units import MB
from repro.workloads.base import Workload

#: Bytes of graph each thread scans per iteration chunk.
CHUNK = 64 * 1024
#: Per-thread graph partition (half local, half remote).
PARTITION_BYTES = 192 * MB


class PageRank(Workload):
    """Fixed-work parallel PageRank; measures completion time."""

    def __init__(self, host, cores, work_bytes_per_thread: int,
                 duration_ns: int = 10_000_000_000):
        # duration_ns here is only a safety cap; PR finishes by work.
        super().__init__(host, duration_ns)
        if not cores:
            raise ValueError("need at least one core")
        self.work_bytes_per_thread = int(work_bytes_per_thread)
        self.completion_times: List[int] = []
        for i, core in enumerate(cores):
            self._spawn(f"pagerank-{i}", self._make_body(i), core)

    def _make_body(self, index: int):
        def body(thread):
            machine = self.host.machine
            costs = machine.spec.software
            node = thread.core.node_id
            other = 1 - node
            local_part = machine.alloc_region(
                f"pr-local-{index}", node, PARTITION_BYTES)
            remote_part = machine.alloc_region(
                f"pr-remote-{index}", other, PARTITION_BYTES)
            dram_local = machine.memory.drams[node]
            dram_remote = machine.memory.drams[other]
            dram_local.enter()
            dram_remote.enter()
            try:
                remaining = self.work_bytes_per_thread
                while remaining > 0 and not self.done():
                    # Streaming halves: local scores, remote neighbours.
                    half = CHUNK // 2
                    cpu = int(CHUNK * costs.pagerank_cpu_ns_per_byte)
                    stall = machine.memory.cpu_stream_read(
                        node, local_part, half)
                    stall += machine.memory.cpu_stream_read(
                        node, remote_part, half)
                    # PageRank's neighbour gathers are random: a fraction
                    # of lines are latency-bound demand misses that feel
                    # the full (congestion-inflated) fill latency.  This
                    # is what makes PR a NUMA-sensitive victim (§5.2).
                    random_lines = CHUNK // 64 // 8
                    local_fill = dram_local.loaded_miss_latency()
                    remote_fill = (dram_remote.loaded_miss_latency()
                                   + machine.interconnect
                                   .loaded_round_trip_ns(node, other))
                    latency_stall = (random_lines // 2) * (local_fill
                                                           + remote_fill)
                    dram_remote.read(random_lines * 32)
                    dram_local.read(random_lines * 32)
                    remaining -= CHUNK
                    yield thread.compute(max(cpu, stall) + latency_stall)
            finally:
                dram_local.leave()
                dram_remote.leave()
            self.completion_times.append(self.env.now)
        return body

    def finished(self) -> bool:
        return len(self.completion_times) == len(self.threads)

    def runtime_ns(self) -> int:
        """Completion time of the slowest thread (the job's runtime)."""
        if not self.finished():
            raise ValueError("PageRank has not finished")
        return max(self.completion_times)

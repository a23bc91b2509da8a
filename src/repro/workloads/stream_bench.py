"""STREAM antagonists (§5.2): interconnect and memory-bandwidth load.

A :class:`StreamPair` is one reader + one writer thread, each targeting
memory **remote** to its CPU, exactly as the paper loads the QPI.  Arrays
are far larger than the LLC so every access streams from DRAM across the
interconnect; writers use non-temporal stores like the real STREAM.
"""

from __future__ import annotations

from repro.units import KB, MB
from repro.workloads.base import Workload, measured_meter

#: Bytes each loop iteration moves (small chunks so interconnect sharing
#: is fine-grained, like real flit-interleaved QPI traffic).
CHUNK = 4 * KB
#: STREAM working-set array size (>> LLC).
ARRAY_BYTES = 256 * MB


class StreamThread(Workload):
    """One STREAM kernel thread (read or write) targeting a remote node."""

    def __init__(self, host, core, target_node: int, kind: str,
                 duration_ns: int, warmup_ns: int = 0):
        super().__init__(host, duration_ns, warmup_ns)
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        self.kind = kind
        self.target_node = target_node
        self.meter = measured_meter(self)
        self.core = core
        self.thread = self._spawn(f"stream-{kind}", self._body, core)

    def _body(self, thread):
        machine = self.host.machine
        costs = machine.spec.software
        node = thread.core.node_id
        array = machine.alloc_region(
            f"stream-{self.kind}-{thread.core.core_id}", self.target_node,
            ARRAY_BYTES, non_temporal=(self.kind == "write"))
        dram = machine.memory.drams[self.target_node]
        # Nearly every event of a STREAM-loaded run is one of these
        # chunks, so everything that does not change between chunks is
        # bound once here and the clock is read directly.
        env = self.env
        duration_ns = self.duration_ns
        warmup_ns = self.warmup_ns
        base = int(CHUNK * costs.stream_cpu_ns_per_byte)
        stream = (machine.memory.cpu_stream_read if self.kind == "read"
                  else machine.memory.cpu_stream_write)
        record = self.meter.record
        compute = thread.compute
        dram.enter()  # long-running bandwidth consumer
        try:
            while env._now < duration_ns:
                stall = stream(node, array, CHUNK)
                # The loop test already holds now < duration_ns.
                if warmup_ns <= env._now:
                    record(CHUNK)
                yield compute(stall if stall > base else base)
        finally:
            dram.leave()
        self.meter.finish(min(env._now, duration_ns))

    def bandwidth_gbps(self) -> float:
        return self.meter.gbps()


class StreamPair:
    """A reader + writer pair, both remote-targeted (§5.2 setup)."""

    def __init__(self, host, read_core, write_core, duration_ns: int,
                 warmup_ns: int = 0):
        read_target = 1 - read_core.node_id
        write_target = 1 - write_core.node_id
        self.reader = StreamThread(host, read_core, read_target, "read",
                                   duration_ns, warmup_ns)
        self.writer = StreamThread(host, write_core, write_target, "write",
                                   duration_ns, warmup_ns)

    def bandwidth_gbps(self) -> float:
        return self.reader.bandwidth_gbps() + self.writer.bandwidth_gbps()


def spawn_stream_pairs(host, n_pairs: int, duration_ns: int,
                       warmup_ns: int = 0, skip_cores=()):
    """Place ``n_pairs`` pairs on free cores, alternating sockets so both
    interconnect directions are loaded (the paper occupies "the other
    server cores" with pairs)."""
    skip_ids = {c.core_id for c in skip_cores}
    free = [c for c in host.scheduler.free_cores()
            if c.core_id not in skip_ids]
    needed = 2 * n_pairs
    if len(free) < needed:
        raise RuntimeError(f"need {needed} free cores, have {len(free)}")
    # Both members of a pair sit on the SAME socket: the reader pulls
    # remote data one way, the writer pushes the other way, so every pair
    # loads both interconnect directions.  Pairs alternate sockets.
    node0 = [c for c in free if c.node_id == 0]
    node1 = [c for c in free if c.node_id == 1]
    pairs = []
    for i in range(n_pairs):
        preferred = node0 if i % 2 == 0 else node1
        fallback = node1 if i % 2 == 0 else node0
        source = preferred if len(preferred) >= 2 else fallback
        if len(source) < 2:
            source = preferred + fallback  # last resort: split the pair
        read_core, write_core = source.pop(0), source.pop(0)
        for pool in (node0, node1):
            for core in (read_core, write_core):
                if core in pool:
                    pool.remove(core)
        pairs.append(StreamPair(host, read_core, write_core, duration_ns,
                                warmup_ns))
    return pairs

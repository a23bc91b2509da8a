"""The flattened DMA and CPU charge paths equal the call chain they replaced.

``PhysicalFunction.dma_write``/``dma_read`` charge their PCIe direction
inline, ``MemorySystem.dma_write`` sends a one-burst DDIO write straight
to ``LastLevelCache._insert`` and invalidates only a region the LLC
holds, ``_dma_serialization`` reads each link's kept crossing inline,
``dma_read`` reads residency only for a local read, and the CPU paths
compute the DRAM load factor and probe the LLC entry inline.  The
reference below is the composition those bodies replaced, written with
the methods they inline (``BandwidthServer.account``, the LLC's
``ddio_write``/``load``/``touch``/``resident_bytes``/``residency``/
``invalidate``, ``DramController.load_factor``/``loaded_miss_latency``
and ``InterconnectLink.loaded_crossing_ns``).  Random operation
sequences run on twin machines, one through each; after every
operation the return values and every piece of state the paths touch
must be equal.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory.system import _LINE_HIT_THRESHOLD, _REQUEST_OVERHEAD
from repro.pcie.fabric import bifurcate
from repro.topology import dell_r730
from repro.units import CACHELINE, KB, MB

# ------------------------------------------------- reference composition


def _ref_serialization(memory, device_node, home, nbytes, engine=None,
                       nbursts=1):
    qpi = memory._qpi
    round_trip = (qpi[device_node][home].loaded_crossing_ns()
                  + qpi[home][device_node].loaded_crossing_ns())
    if nbursts == 1:
        lines = max(1, nbytes // CACHELINE)
        duration = int(lines * round_trip / memory.dma_outstanding_lines)
    else:
        lines = max(1, (nbytes // nbursts) // CACHELINE)
        duration = nbursts * int(
            lines * round_trip / memory.dma_outstanding_lines)
    if engine is None:
        return duration
    now = memory.env.now
    start = max(engine.dma_window_free_at, now)
    engine.dma_window_free_at = start + duration
    return (start - now) + duration


def _ref_dma_write(memory, device_node, region, nbytes, engine=None,
                   nbursts=1):
    home = region.home_node
    if (device_node == home and memory.ddio_enabled
            and not region.non_temporal):
        absorbed = memory.llcs[home].ddio_write(region, nbytes, nbursts)
        spill = nbytes - absorbed
        if spill:
            region.dma_llc_node = None
            return memory.drams[home].write(spill)
        region.dma_llc_node = home
        return 0
    dram_delay = memory.drams[home].write(nbytes)
    qpi_delay = 0
    if device_node != home:
        qpi_delay = max(memory._qpi[device_node][home].traverse(nbytes),
                        _ref_serialization(memory, device_node, home,
                                           nbytes, engine, nbursts))
    memory.llcs[home].invalidate(region, nbytes)
    region.dma_llc_node = None
    return max(dram_delay, qpi_delay)


def _ref_dma_read(memory, device_node, region, nbytes, engine=None):
    home = region.home_node
    llc = memory.llcs[home]
    cached_fraction = llc.residency(region)
    if device_node == home:
        if cached_fraction >= _LINE_HIT_THRESHOLD and memory.ddio_enabled:
            llc.hits_bytes += nbytes
            return 0
        return memory.drams[home].read(nbytes)
    dram_delay = memory.drams[home].read(nbytes)
    qpi_delay = (memory._qpi[device_node][home].traverse(
        int(nbytes * _REQUEST_OVERHEAD))
        + memory._qpi[home][device_node].traverse(nbytes))
    serial = _ref_serialization(memory, device_node, home, nbytes, engine)
    return max(dram_delay, qpi_delay, serial)


def _ref_pf_dma_write(pf, memory, region, nbytes, nbursts=1):
    upstream = pf.link.upstream
    per_burst, remainder = divmod(nbytes, nbursts)
    if nbursts == 1 or remainder:
        pcie_delay = upstream.account(nbytes)
    else:
        pcie_delay = upstream.account_batch(per_burst, nbursts)
    return max(_ref_dma_write(memory, pf.attach_node, region, nbytes, pf,
                              nbursts), pcie_delay)


def _ref_pf_dma_read(pf, memory, region, nbytes):
    pcie_delay = pf.link.downstream.account(nbytes)
    return max(_ref_dma_read(memory, pf.attach_node, region, nbytes, pf),
               pcie_delay)


def _ref_stall(memory, dram, nbytes):
    return int(nbytes / CACHELINE * memory._stall_per_line
               * dram.load_factor())


def _ref_cpu_stream_read(memory, node, region, nbytes):
    miss = memory.llcs[node].stream_access(region, nbytes)
    if miss == 0:
        return 0
    home = region.home_node
    dram = memory.drams[home]
    stall = _ref_stall(memory, dram, miss)
    delay = max(stall, dram.read(miss))
    if home != node:
        delay = max(delay, memory._qpi[node][home].traverse(
            int(miss * _REQUEST_OVERHEAD))
            + memory._qpi[home][node].traverse(miss))
    return delay


def _ref_cpu_stream_write(memory, node, region, nbytes):
    home = region.home_node
    dram = memory.drams[home]
    if region.non_temporal:
        delay = dram.write(nbytes)
        if home != node:
            delay = max(delay, memory._qpi[node][home].traverse(nbytes))
        return delay
    miss = memory.llcs[node].stream_access(region, nbytes)
    if miss == 0:
        return 0
    stall = _ref_stall(memory, dram, miss)
    delay = max(stall, (dram.read(miss) + dram.write(miss)) // 2)
    if home != node:
        out, back = memory._qpi[node][home], memory._qpi[home][node]
        delay = max(delay, out.traverse(int(miss * _REQUEST_OVERHEAD))
                    + back.traverse(miss) + out.traverse(miss))
    return delay


def _ref_cpu_read_fresh_dma(memory, node, region, nbytes, inflight_bytes):
    llc = memory.llcs[node]
    llc.touch(region)
    window = min(inflight_bytes, int(region.size * 0.9))
    if (region.dma_llc_node == node
            and llc.resident_bytes(region) >= window):
        llc.hits_bytes += nbytes
        return 0
    llc.miss_bytes += nbytes
    home = region.home_node
    dram = memory.drams[home]
    stall = _ref_stall(memory, dram, nbytes)
    dram_delay = dram.read(nbytes)
    dram_delay = max(dram_delay, dram.write(nbytes))
    qpi_delay = 0
    if home != node:
        qpi_delay = (memory._qpi[node][home].traverse(
            int(nbytes * _REQUEST_OVERHEAD))
            + memory._qpi[home][node].traverse(nbytes))
    llc.load(region, nbytes)
    return max(stall, dram_delay, qpi_delay)


def _ref_read_fresh_dma_line(memory, node, region):
    resident = region.dma_llc_node
    if resident == node:
        memory.llcs[node].hits_bytes += CACHELINE
        return 0
    memory.llcs[node].miss_bytes += CACHELINE
    if resident is not None:
        return memory.drams[resident].miss_latency_ns
    home = region.home_node
    latency = memory.drams[home].loaded_miss_latency()
    latency += memory.drams[home].read(CACHELINE)
    if home != node:
        latency += (memory._qpi[node][home].loaded_crossing_ns()
                    + memory._qpi[home][node].loaded_crossing_ns())
    return latency


# --------------------------------------------------------------- twins

#: (name, home node, size, non-temporal): small rings and buffers, one
#: past the 3.5 MB DDIO slice, two whose loads overflow the 35 MB LLC,
#: and a non-temporal array.
_REGIONS = (("ring0", 0, 64 * KB, False), ("ring1", 1, 64 * KB, False),
            ("buf0", 0, 8 * MB, False), ("buf1", 1, 24 * MB, False),
            ("heap0", 0, 24 * MB, False), ("nt1", 1, 1 * MB, True))


class _Twin:
    def __init__(self):
        self.machine = dell_r730()
        self.memory = self.machine.memory
        self.pfs = bifurcate(self.machine, 16, [0, 1])
        self.regions = [self.machine.alloc_region(name, node, size, nt)
                        for name, node, size, nt in _REGIONS]

    def state(self):
        memory = self.memory
        llcs = [([(region.name, entry.resident, entry.ddio)
                  for region, entry in llc._entries.items()],
                 llc._occupied, llc._ddio_occupied, llc.hits_bytes,
                 llc.miss_bytes, llc.invalidated_bytes)
                for llc in memory.llcs]
        drams = [(dram.read_bytes, dram.write_bytes, dram._bucket_start,
                  dram._bucket_bytes, dram._last_utilization,
                  dict(dram._service)) for dram in memory.drams]
        servers = [link for row in memory._qpi for link in row
                   if link is not None]
        servers += [server for pf in self.pfs
                    for server in (pf.link.upstream, pf.link.downstream)]
        queues = [(server._free_at, server._busy_ns, server._bytes_total,
                   server.bytes_per_sec, dict(server._service))
                  for server in servers]
        links = [(link._bucket_start, link._bucket_bytes,
                  link._last_utilization, link._crossing_at,
                  link._crossing_ns)
                 for row in memory._qpi for link in row if link is not None]
        fresh = [region.dma_llc_node for region in self.regions]
        windows = [pf.dma_window_free_at for pf in self.pfs]
        return llcs, drams, queues, links, fresh, windows


def _apply(twin, op, reference):
    """Run ``op`` on ``twin``, through the reference composition when
    ``reference`` is set; returns what the operation returned."""
    kind, args = op[0], op[1:]
    memory = twin.memory
    if kind == "advance":
        twin.machine.env._now += args[0]
        return None
    if kind == "ddio":
        memory.ddio_enabled = args[0]
        return None
    if kind == "throttle":
        link = memory._qpi[args[0]][1 - args[0]]
        link.throttle(args[1])
        return None
    if kind == "degrade":
        twin.pfs[args[0]].link.degrade(args[1])
        return None
    region = twin.regions[args[1]]
    if kind == "pf_write":
        pf = twin.pfs[args[0]]
        nbytes, nbursts = args[2], args[3]
        if reference:
            return _ref_pf_dma_write(pf, memory, region, nbytes, nbursts)
        return pf.dma_write(region, nbytes, nbursts=nbursts)
    if kind == "pf_read":
        pf = twin.pfs[args[0]]
        if reference:
            return _ref_pf_dma_read(pf, memory, region, args[2])
        return pf.dma_read(region, args[2])
    if kind == "dma_write":
        node, nbytes, nbursts = args[0], args[2], args[3]
        if reference:
            return _ref_dma_write(memory, node, region, nbytes,
                                  nbursts=nbursts)
        return memory.dma_write(node, region, nbytes, nbursts=nbursts)
    if kind == "dma_read":
        if reference:
            return _ref_dma_read(memory, args[0], region, args[2])
        return memory.dma_read(args[0], region, args[2])
    if kind == "stream_read":
        if reference:
            return _ref_cpu_stream_read(memory, args[0], region, args[2])
        return memory.cpu_stream_read(args[0], region, args[2])
    if kind == "stream_write":
        if reference:
            return _ref_cpu_stream_write(memory, args[0], region, args[2])
        return memory.cpu_stream_write(args[0], region, args[2])
    if kind == "fresh":
        if reference:
            return _ref_cpu_read_fresh_dma(memory, args[0], region, args[2],
                                           args[3])
        return memory.cpu_read_fresh_dma(args[0], region, args[2],
                                         inflight_bytes=args[3])
    assert kind == "line"
    if reference:
        return _ref_read_fresh_dma_line(memory, args[0], region)
    return memory.read_fresh_dma_line(args[0], region)


_nodes = st.integers(0, 1)
_region = st.integers(0, len(_REGIONS) - 1)
_sizes = st.one_of(st.integers(0, 5000),
                   st.sampled_from([64, 1448, 4096, 32 * KB, 64 * KB,
                                    1 * MB, 4 * MB, 6 * MB]))
_ops = st.one_of(
    st.tuples(st.just("advance"),
              st.sampled_from([0, 1, 100, 5_000, 19_999, 20_000, 70_000])),
    st.tuples(st.just("ddio"), st.booleans()),
    st.tuples(st.just("throttle"), _nodes, st.sampled_from([0.25, 1.0])),
    st.tuples(st.just("degrade"), _nodes, st.sampled_from([2, 8])),
    st.tuples(st.just("pf_write"), _nodes, _region, _sizes,
              st.integers(1, 4)),
    st.tuples(st.just("pf_read"), _nodes, _region, _sizes),
    st.tuples(st.just("dma_write"), _nodes, _region, _sizes,
              st.integers(1, 4)),
    st.tuples(st.just("dma_read"), _nodes, _region, _sizes),
    st.tuples(st.just("stream_read"), _nodes, _region, _sizes),
    st.tuples(st.just("stream_write"), _nodes, _region, _sizes),
    st.tuples(st.just("fresh"), _nodes, _region, _sizes,
              st.sampled_from([0, 4 * KB, 2 * MB, 30 * MB])),
    st.tuples(st.just("line"), _nodes, _region),
)


@given(st.lists(_ops, min_size=1, max_size=60))
# Boundaries a random sequence seldom reaches: a DDIO-fresh ring whose
# inflight window exceeds 90% of it; each CPU path's DRAM load factor
# read more than a bucket after the controller's last charge; and a
# local DMA read at exactly half residency.
@example([("pf_write", 0, 0, 64 * KB, 1), ("fresh", 0, 0, 1448, 2 * MB)])
@example([("stream_read", 0, 2, 4 * MB), ("advance", 70_000),
          ("stream_read", 0, 2, 4 * MB), ("advance", 70_000),
          ("stream_write", 0, 4, 4 * MB), ("advance", 70_000),
          ("line", 0, 2), ("advance", 70_000),
          ("fresh", 0, 2, 4 * MB, 0)])
@example([("stream_read", 0, 0, 32 * KB), ("pf_read", 0, 0, 1448)])
@settings(max_examples=400, deadline=None)
def test_flattened_paths_match_the_reference_composition(ops):
    """Local and remote DMA writes and reads (one burst and trains,
    through a PF and engine-less), DDIO on and off, STREAM reads and
    writes, fresh-DMA copies with inflight windows and completion-line
    reads, between clock steps, QPI throttles and PCIe retrains: each
    return value, the LLC entries and counters, every DRAM's bytes,
    bucket and memo, every QPI and PCIe queue with its memo, every
    link's bucket and kept crossing, each region's DDIO node and each
    PF's DMA window equal the reference composition's."""
    flat, reference = _Twin(), _Twin()
    for op in ops:
        assert _apply(flat, op, False) == _apply(reference, op, True), op
        assert flat.state() == reference.state(), op

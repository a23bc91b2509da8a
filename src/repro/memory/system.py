"""The memory system: routes every CPU and DMA access in the machine.

All data movement in the simulator — netperf copies, pktgen descriptor
writes, NIC DMA, STREAM antagonists, PageRank scans — funnels through one
:class:`MemorySystem`.  It decides, per access, whether the bytes hit the
LLC, local DRAM, or remote DRAM across the interconnect; charges the right
bandwidth servers; and returns the access latency.  The NUDMA effects the
paper measures are therefore *consequences* of three routing rules
(§2.2/§5.1.1):

1. DMA writes from a device **local** to the target memory allocate into
   the LLC (DDIO); the CPU's subsequent reads are hits.
2. DMA writes from a **remote** device go to DRAM, cross the interconnect,
   and invalidate the CPU's cached copy; the CPU's subsequent reads miss
   (~80 ns/line, plus interconnect queueing under load).
3. DMA reads are satisfied by probing LLC and DRAM in parallel and do not
   invalidate — which is why transmit throughput is placement-insensitive
   while receive is not (Fig 6 vs Fig 7).
"""

from __future__ import annotations

from typing import List

from repro.interconnect.link import Interconnect
from repro.memory.dram import _ALPHA, DramController
from repro.memory.llc import LastLevelCache
from repro.memory.region import Region
from repro.sim.engine import Environment
from repro.units import CACHELINE

if False:  # pragma: no cover - import only for type checkers
    from repro.topology.constants import MachineSpec

#: Residency above this fraction counts as "the line I need is cached" for
#: single-line reads (descriptor/completion entries).
_LINE_HIT_THRESHOLD = 0.5

#: Request-header overhead, as a fraction of payload, for remote fills.
_REQUEST_OVERHEAD = 1 / 8

#: Cache-line transactions a DMA engine keeps in flight across the
#: interconnect.  When congestion inflates the per-line round trip, the
#: engine's effective remote bandwidth collapses to
#: OUTSTANDING * 64 B / round-trip — the §5.2 and §5.4 degradation.
_DMA_OUTSTANDING_LINES = 32


class MemorySystem:
    """Access router for one machine."""

    def __init__(self, env: Environment, spec: "MachineSpec",
                 llcs: List[LastLevelCache], drams: List[DramController],
                 interconnect: Interconnect):
        if not (len(llcs) == len(drams) == spec.num_nodes):
            raise ValueError("llcs/drams must have one entry per node")
        self.env = env
        self.spec = spec
        self.llcs = llcs
        self.drams = drams
        #: The ``[src][dst]`` link table: every access below has already
        #: told the nodes apart, so it charges both links of a round trip
        #: itself.
        self._qpi = interconnect.table
        self.ddio_enabled = True
        #: In-flight cache-line window per DMA engine (ablation knob).
        self.dma_outstanding_lines = _DMA_OUTSTANDING_LINES
        self._stall_per_line = spec.software.dram_stream_stall_ns_per_line

    # ------------------------------------------------------------------
    # CPU-side accesses
    # ------------------------------------------------------------------

    def cpu_stream_read(self, node: int, region: Region,
                        nbytes: int) -> int:
        """Streaming read (e.g. the source side of a copy, a STREAM scan).

        Returns the CPU-visible stall time beyond the base instruction
        cost; misses charge DRAM and (if remote) interconnect bandwidth.
        """
        miss = self.llcs[node].stream_access(region, nbytes)
        if miss == 0:
            return 0
        home = region.home_node
        dram = self.drams[home]
        # dram.load_factor(), inline (hot path).
        elapsed = self.env._now - dram._bucket_start
        if elapsed <= 0:
            u = dram._last_utilization
        else:
            current = (dram._bucket_bytes * 1e9
                       / (dram.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            weight = elapsed / dram.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            u = (1.0 - weight) * dram._last_utilization + weight * current
        stall = int(miss / CACHELINE * self._stall_per_line
                    * (1.0 + _ALPHA * u * u))
        # max(stall, dram_delay, qpi_delay) as conditionals (hot path);
        # every term is a non-negative int.
        dram_delay = dram.read(miss)
        delay = dram_delay if dram_delay > stall else stall
        if home != node:
            qpi = self._qpi
            qpi_delay = (qpi[node][home].traverse(
                int(miss * _REQUEST_OVERHEAD))
                + qpi[home][node].traverse(miss))
            if qpi_delay > delay:
                delay = qpi_delay
        return delay

    def cpu_stream_write(self, node: int, region: Region,
                         nbytes: int) -> int:
        """Streaming write (destination side of a copy, STREAM's store
        kernel).  Write-allocate unless the region is non-temporal."""
        home = region.home_node
        dram = self.drams[home]
        if region.non_temporal:
            # NT stores go straight to the home memory, no allocation, no
            # fill read; they stall the CPU very little.
            delay = dram.write(nbytes)
            if home != node:
                qpi_delay = self._qpi[node][home].traverse(nbytes)
                if qpi_delay > delay:
                    delay = qpi_delay
            return delay
        miss = self.llcs[node].stream_access(region, nbytes)
        if miss == 0:
            return 0
        # dram.load_factor(), inline (hot path).
        elapsed = self.env._now - dram._bucket_start
        if elapsed <= 0:
            u = dram._last_utilization
        else:
            current = (dram._bucket_bytes * 1e9
                       / (dram.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            weight = elapsed / dram.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            u = (1.0 - weight) * dram._last_utilization + weight * current
        stall = int(miss / CACHELINE * self._stall_per_line
                    * (1.0 + _ALPHA * u * u))
        # Write-allocate fill read now + steady-state writeback later.
        dram_delay = (dram.read(miss) + dram.write(miss)) // 2
        delay = dram_delay if dram_delay > stall else stall
        if home != node:
            out, back = self._qpi[node][home], self._qpi[home][node]
            qpi_delay = (out.traverse(int(miss * _REQUEST_OVERHEAD))
                         + back.traverse(miss) + out.traverse(miss))
            if qpi_delay > delay:
                delay = qpi_delay
        return delay

    def cpu_read_fresh_dma(self, node: int, region: Region,
                           nbytes: int, inflight_bytes: int = 0) -> int:
        """Read data a device DMA-wrote (Rx payload copy-out).

        If the DMA landed in this node's LLC (DDIO), the copy source is
        hot; otherwise every line streams from the region's home DRAM.
        ``inflight_bytes`` is how far the consumer lags the producer (the
        ring backlog): the data is only still cached if the region has at
        least that much LLC residency — with many queues sharing the DDIO
        slice, it does not, and memory traffic reappears even with a local
        device (§5.1.1, multi-core).
        """
        llc = self.llcs[node]
        # touch() and resident_bytes() on one probe of the entry.
        entries = llc._entries
        entry = entries.get(region)
        if entry is not None:
            entries.move_to_end(region)
        # min(inflight_bytes, 90% of the region) as a conditional.
        window = int(region.size * 0.9)
        window = window if window < inflight_bytes else inflight_bytes
        if (region.dma_llc_node == node
                and (0 if entry is None else entry.resident) >= window):
            llc.hits_bytes += nbytes
            return 0
        llc.miss_bytes += nbytes
        home = region.home_node
        dram = self.drams[home]
        # dram.load_factor(), inline.
        elapsed = self.env._now - dram._bucket_start
        if elapsed <= 0:
            u = dram._last_utilization
        else:
            current = (dram._bucket_bytes * 1e9
                       / (dram.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            weight = elapsed / dram.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            u = (1.0 - weight) * dram._last_utilization + weight * current
        stall = int(nbytes / CACHELINE * self._stall_per_line
                    * (1.0 + _ALPHA * u * u))
        dram_delay = dram.read(nbytes)
        # Streaming cold DMA data through the LLC evicts an equal volume
        # of dirty lines written in the same pass (the copy destination),
        # so the controller also sees a writeback stream.  Together with
        # the device's write and the copy's read this yields the 3x-of-
        # throughput memory bandwidth the paper measures for remote Rx
        # (Fig 6b); with DDIO none of the three streams exists.
        write_delay = dram.write(nbytes)
        # max(stall, dram_delay, qpi_delay) as conditionals; every term
        # is a non-negative int.
        delay = write_delay if write_delay > dram_delay else dram_delay
        delay = delay if delay > stall else stall
        if home != node:
            qpi_delay = (self._qpi[node][home].traverse(
                int(nbytes * _REQUEST_OVERHEAD))
                + self._qpi[home][node].traverse(nbytes))
            if qpi_delay > delay:
                delay = qpi_delay
        # llc.load(region, nbytes).
        if not region.non_temporal:
            llc._insert(region, nbytes, False)
        return delay

    def read_fresh_dma_line(self, node: int, region: Region) -> int:
        """Latency-critical single-line read of a just-DMA-written entry
        (a completion descriptor).  This is the ~80 ns that separates
        pktgen's local and remote rates (§5.1.1)."""
        resident = region.dma_llc_node
        if resident == node:
            self.llcs[node].hits_bytes += CACHELINE
            return 0
        self.llcs[node].miss_bytes += CACHELINE
        if resident is not None and resident != node:
            # Remote-DDIO case (§2.4): the entry sits in the *other*
            # socket's LLC.  Cache-to-cache forwarding costs about as much
            # as an idle local DRAM miss — it merely spares DRAM bandwidth
            # and the controller's load-induced latency inflation, which
            # is why the paper measured at most ~2% benefit.
            return self.drams[resident].miss_latency_ns
        return self._line_fill_latency(node, region)

    def dma_read_class(self, node: int, region: Region) -> str:
        """Classify (without charging) what a latency-bound read of a
        freshly DMA-written line in ``region`` would be served from —
        the DDIO tag the latency-blame stages carry:

        * ``"ddio_hit"`` — the DMA allocated into this node's LLC.
        * ``"llc_remote"`` — remote-DDIO: the line sits in the *other*
          socket's LLC (cache-to-cache forward, ~a DRAM miss, §2.4).
        * ``"dram"`` — the DMA spilled/went to this node's DRAM.
        * ``"dram_qpi"`` — DRAM on the other socket, across the
          interconnect.

        Pure read: no counters move, no bandwidth is charged, so blame
        classification cannot perturb the model.
        """
        resident = region.dma_llc_node
        if resident == node:
            return "ddio_hit"
        if resident is not None:
            return "llc_remote"
        if region.home_node != node:
            return "dram_qpi"
        return "dram"

    # ------------------------------------------------------------------
    # Device-side (DMA) accesses
    # ------------------------------------------------------------------

    def dma_write(self, device_node: int, region: Region,
                  nbytes: int, engine=None, nbursts: int = 1) -> int:
        """A device writes ``nbytes`` into ``region``.

        Local + DDIO: allocate into the LLC's DDIO slice, DRAM untouched.
        Remote (or DDIO off): cross the interconnect, write DRAM, and
        invalidate the CPU-side cached copy.

        ``nbytes`` is the total across ``nbursts`` back-to-back bursts.
        With ``nbursts > 1`` (an adaptive train) the DDIO absorb/spill
        split and the DMA-window serialization are applied *per burst*,
        preserving the exact path's nonlinearity: K bursts each absorb up
        to the DDIO slice, while one giant write would not.
        """
        home = region.home_node
        if (device_node == home and self.ddio_enabled
                and not region.non_temporal):
            llc = self.llcs[home]
            if nbursts == 1:
                # llc.ddio_write(region, nbytes) for one burst.
                cap = llc.ddio_capacity
                absorbed = nbytes if nbytes < cap else cap
                llc._insert(region, absorbed, True)
            else:
                absorbed = llc.ddio_write(region, nbytes, nbursts)
            spill = nbytes - absorbed
            if spill:
                region.dma_llc_node = None
                return self.drams[home].write(spill)
            region.dma_llc_node = home
            return 0
        dram_delay = self.drams[home].write(nbytes)
        qpi_delay = 0
        if device_node != home:
            qpi_delay = self._qpi[device_node][home].traverse(nbytes)
            serial = self._dma_serialization(device_node, home, nbytes,
                                             engine, nbursts)
            if serial > qpi_delay:
                qpi_delay = serial
        llc = self.llcs[home]
        # invalidate() drops nothing from an LLC that holds no entry.
        if region in llc._entries:
            llc.invalidate(region, nbytes)
        region.dma_llc_node = None
        return dram_delay if dram_delay > qpi_delay else qpi_delay

    def dma_read(self, device_node: int, region: Region,
                 nbytes: int, engine=None) -> int:
        """A device reads ``nbytes`` from ``region``.

        Reads never invalidate.  A remote read always charges the home
        DRAM for a parallel probe (the paper's §5.1.1 hypothesis for why
        remote Tx memory bandwidth equals its throughput), even when the
        data is ultimately served from the LLC.
        """
        home = region.home_node
        if device_node == home:
            llc = self.llcs[home]
            if (llc.residency(region) >= _LINE_HIT_THRESHOLD
                    and self.ddio_enabled):
                llc.hits_bytes += nbytes
                return 0
            return self.drams[home].read(nbytes)
        dram_delay = self.drams[home].read(nbytes)  # parallel probe
        qpi_delay = (self._qpi[device_node][home].traverse(
            int(nbytes * _REQUEST_OVERHEAD))
            + self._qpi[home][device_node].traverse(nbytes))
        serial = self._dma_serialization(device_node, home, nbytes, engine)
        if serial > qpi_delay:
            qpi_delay = serial
        return dram_delay if dram_delay > qpi_delay else qpi_delay

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dma_serialization(self, device_node: int, home: int,
                           nbytes: int, engine=None,
                           nbursts: int = 1) -> int:
        """Delay from the DMA engine's bounded in-flight line window.

        When ``engine`` (the issuing PF) is given, the window is a serial
        resource: concurrent remote transfers through one engine queue
        behind each other, which is what throttles an SSD or NIC behind a
        congested interconnect (§5.2, §5.4).

        With ``nbursts > 1`` (an adaptive train) the window is charged
        per burst at the current loaded round trip (within a train the
        crossing latency is taken as constant), matching the exact
        path's per-burst integer truncation.
        """
        # Each direction's loaded_crossing_ns(): the crossing it keeps
        # for this instant (the caller has just charged at least one
        # direction), else computed.
        now = self.env._now
        link = self._qpi[device_node][home]
        round_trip = (link._crossing_ns if link._crossing_at == now
                      else link.loaded_crossing_ns())
        link = self._qpi[home][device_node]
        round_trip += (link._crossing_ns if link._crossing_at == now
                       else link.loaded_crossing_ns())
        if nbursts == 1:
            lines = nbytes // CACHELINE
            if lines < 1:
                lines = 1
            duration = int(lines * round_trip / self.dma_outstanding_lines)
        else:
            lines = (nbytes // nbursts) // CACHELINE
            if lines < 1:
                lines = 1
            duration = nbursts * int(
                lines * round_trip / self.dma_outstanding_lines)
        if engine is None:
            return duration
        free_at = engine.dma_window_free_at
        start = free_at if free_at > now else now
        engine.dma_window_free_at = start + duration
        return (start - now) + duration

    def _line_fill_latency(self, node: int, region: Region) -> int:
        home = region.home_node
        dram = self.drams[home]
        # dram.loaded_miss_latency(), inline.
        elapsed = self.env._now - dram._bucket_start
        if elapsed <= 0:
            u = dram._last_utilization
        else:
            current = (dram._bucket_bytes * 1e9
                       / (dram.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            weight = elapsed / dram.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            u = (1.0 - weight) * dram._last_utilization + weight * current
        latency = int(dram.miss_latency_ns * (1.0 + _ALPHA * u * u))
        latency += dram.read(CACHELINE)
        if home != node:
            # Latency-bound single-line fills see the congestion-inflated
            # crossing latency, not the bulk servers' transient batch
            # backlog (a line interleaves between batches on real links).
            latency += (self._qpi[node][home].loaded_crossing_ns()
                        + self._qpi[home][node].loaded_crossing_ns())
        return latency

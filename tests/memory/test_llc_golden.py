"""Golden LLC state after two exact runs.

The DMA charge path rewrites the LLC's eviction loops for speed; these
pins hold the cache state they leave behind to the values captured
before that rewrite: for each server LLC, the ordered (region, resident,
ddio) entries, occupancy, hit/miss/invalidated byte counters, and the
``dma_llc_node`` of every region the server's queues and sockets own.

They pin current behaviour, including the DDIO-eviction quirk (ROADMAP
item 4): ``_evict_ddio_overflow`` deletes a fully-shrunk region without
clearing its ``dma_llc_node``.  The fig06 point below runs 124 such
deletions.  Fixing the quirk is a deliberate, reference-moving change;
it must not happen as a side effect of an optimisation.
"""

from __future__ import annotations

from repro.experiments.runners import run_tcp_stream
from repro.units import KB

D = 10_000_000  # 10 ms simulated


class _Recorder:
    """Stands in for an ObsSession: keeps the testbed a runner attaches."""

    testbed = None

    def attach(self, testbed, horizon_ns=None):
        self.testbed = testbed


def _run(*args, **kwargs):
    recorder = _Recorder()
    run_tcp_stream(*args, accuracy="exact", obs=recorder, **kwargs)
    return recorder.testbed.server


def _llc_state(server):
    return [([(region.name, entry.resident, entry.ddio)
              for region, entry in llc._entries.items()],
             llc.occupied, llc.ddio_occupied,
             llc.hits_bytes, llc.miss_bytes, llc.invalidated_bytes)
            for llc in server.machine.memory.llcs]


def _dma_nodes(server):
    """``dma_llc_node`` of every queue and socket region, by name."""
    queues = server.driver.queues
    regions = ([q.ring for q in queues.rx] + [q.buffers for q in queues.rx]
               + [q.ring for q in queues.tx] + [q.skbs for q in queues.tx]
               + [sock.app_buffer for sock in server.stack.sockets])
    assert len(regions) == 113          # 28 cores x 4 + one socket
    return {region.name: region.dma_llc_node for region in regions}


def _expect_nodes(server, fresh):
    """Every region's node is None except those named in ``fresh``."""
    nodes = _dma_nodes(server)
    assert nodes == {name: fresh.get(name) for name in nodes}


def test_ddio_overflow_point_llc_golden():
    """fig06's ioctopus Rx 1 KB point: DDIO overflows on every burst."""
    server = _run("ioctopus", 1 * KB, "rx", D)
    assert _llc_state(server) == [
        ([], 0, 0, 0, 0, 0),
        ([("app-10000", 65536, 0),
          ("rxbuf14", 5763072, 3665920),
          ("rxring14", 4096, 4096)],
         5832704, 3670016, 21441728, 2162752, 0),
    ]
    _expect_nodes(server, {"rxbuf14": 1, "rxring14": 1})


def test_stream_read_point_llc_golden():
    """Remote Rx 64 KB beside three STREAM pairs: the readers' chunks
    allocate through ``stream_access`` and remote DMA
    invalidates."""
    server = _run("remote", 64 * KB, "rx", D, stream_pairs=3)
    assert _llc_state(server) == [
        ([("stream-read-2", 3076096, 0),
          ("stream-read-0", 20283392, 0)],
         23359488, 0, 4507130, 104872454, 0),
        ([("app-10000", 65536, 0),
          ("stream-read-15", 18071552, 0)],
         18137088, 0, 23751074, 72546654, 20781696),
    ]
    _expect_nodes(server, {})

"""Golden QPI, DRAM and STREAM state after two exact STREAM-loaded runs.

STREAM chunks, doorbells and DMAs charge each QPI link direction's byte
queue and 20 us load bucket, and each DRAM controller's byte counters
and load bucket, inline.  These pins hold the state two runs leave
behind to the values captured before that charge path was folded into
the links and controllers: for each link, the queue's ``_free_at``, its
busy, byte and window totals and the load bucket (last utilization,
bucket start, bucket bytes); for each DRAM, its read and write bytes and
its bucket; and each STREAM thread's meter.  The floats are compared
exactly: the path must stay bit-identical.
"""

from __future__ import annotations

from repro.core.configurations import Testbed
from repro.experiments import runners
from repro.experiments.runners import (
    run_tcp_stream,
    run_with_slack,
    warmup_of,
)
from repro.units import KB
from repro.workloads.sockperf import UdpPingPong
from repro.workloads.stream_bench import spawn_stream_pairs

D = 10_000_000  # 10 ms simulated


def _links(machine):
    return [(link.src_node, link.dst_node, link._free_at, link.busy_ns,
             link.bytes_total, link._window_bytes,
             (link._last_utilization, link._bucket_start,
              link._bucket_bytes))
            for link in machine.interconnect.links()]


def _drams(machine):
    return [(dram.read_bytes, dram.write_bytes,
             (dram._last_utilization, dram._bucket_start,
              dram._bucket_bytes))
            for dram in machine.memory.drams]


def _meters(pairs):
    return [(thread.kind, thread.core.core_id, thread.target_node,
             thread.meter.bytes_total, thread.meter.messages_total)
            for pair in pairs for thread in (pair.reader, pair.writer)]


class _Recorder:
    """Stands in for an ObsSession: keeps the testbed a runner attaches."""

    testbed = None

    def attach(self, testbed, horizon_ns=None):
        self.testbed = testbed


def test_udp_latency_point_stream_golden():
    """fig12's remote point with three STREAM pairs: every ping-pong
    message rings a doorbell and raises an MSI-X across the loaded
    links."""
    testbed = Testbed("remote", accuracy="exact")
    workload = UdpPingPong(testbed, 64, D, warmup_of(D))
    pairs = spawn_stream_pairs(testbed.server, 3, D,
                               skip_cores=[testbed.server_core(0)])
    run_with_slack(testbed, D)
    machine = testbed.server.machine
    assert workload.average_one_way_us() == 4.8719919816723944
    assert _links(machine) == [
        (0, 1, 9999893, 6683383, 187420065, 187420065,
         (0.6639983579638752, 9991080, 168226)),
        (1, 0, 9999873, 6376714, 178680585, 178680585,
         (0.6348044419908272, 9991080, 160794)),
    ]
    assert _drams(machine) == [
        (55419404, 58851328, (0.1881250825736557, 9991080, 102113)),
        (113174294, 118032448, (0.3840104373100806, 9991080, 208511)),
    ]
    assert _meters(pairs) == [
        ("read", 0, 1, 58851328, 14368),
        ("write", 1, 1, 58851328, 14368),
        ("read", 15, 0, 58851328, 14368),
        ("write", 16, 0, 58851328, 14368),
        ("read", 2, 1, 58851328, 14368),
        ("write", 3, 1, 58851328, 14368),
    ]


def test_tcp_rx_point_stream_golden(monkeypatch):
    """Remote Rx 64 KB beside three STREAM pairs (the LLC golden's
    second point): remote DMA writes and the copy-out's round trips
    share the links with the chunks."""
    spawned = []

    def spawn(*args, **kwargs):
        pairs = spawn_stream_pairs(*args, **kwargs)
        spawned.extend(pairs)
        return pairs

    monkeypatch.setattr(runners, "spawn_stream_pairs", spawn)
    recorder = _Recorder()
    result = run_tcp_stream("remote", 64 * KB, "rx", D, stream_pairs=3,
                            accuracy="exact", obs=recorder)
    machine = recorder.testbed.server.machine
    assert result["throughput_gbps"] == 16.407130352941177
    assert _links(machine) == [
        (0, 1, 9999878, 7015114, 196649778, 166801946,
         (0.6706981005618459, 9992431, 169660)),
        (1, 0, 9999976, 6072407, 170142790, 144137946,
         (0.5885483744725664, 9995256, 82330)),
    ]
    assert _drams(machine) == [
        (51599252, 58851328, (0.18959241643546043, 9990924, 91448)),
        (125782301, 152871264, (0.510260300091188, 9998068, 48081)),
    ]
    assert _meters(spawned) == [
        ("read", 0, 1, 46481408, 11348),
        ("write", 1, 1, 46854144, 11439),
        ("read", 15, 0, 46501888, 11353),
        ("write", 16, 0, 50020352, 12212),
        ("read", 2, 1, 46481408, 11348),
        ("write", 3, 1, 46858240, 11440),
    ]

"""Tests for the workload models."""

import pytest

from repro.core import Testbed
from repro.nic.packet import Flow
from repro.workloads import (
    MemcachedServer,
    PageRank,
    Pktgen,
    TcpRr,
    TcpStream,
    UdpPingPong,
    spawn_stream_pairs,
)
from repro.workloads.stream_bench import CHUNK, StreamThread

DUR = 8_000_000
WARM = 1_000_000


def test_tcp_stream_validates_args():
    testbed = Testbed("local")
    with pytest.raises(ValueError):
        TcpStream(testbed.server, testbed.server_core(0), Flow.make(0),
                  1448, "sideways", DUR, WARM)
    with pytest.raises(ValueError):
        TcpStream(testbed.server, testbed.server_core(0), Flow.make(0),
                  0, "rx", DUR, WARM)
    with pytest.raises(ValueError):
        TcpStream(testbed.server, testbed.server_core(0), Flow.make(0),
                  1448, "rx", duration_ns=100, warmup_ns=200)
    # The latency workloads check their message size the same way.
    for latency_workload in (TcpRr, UdpPingPong):
        for size in (0, -5):
            with pytest.raises(ValueError, match=f"got {size}"):
                latency_workload(testbed, size, DUR, WARM)


def test_tcp_stream_rx_measures_throughput():
    testbed = Testbed("local")
    workload = TcpStream(testbed.server, testbed.server_core(0),
                         Flow.make(0), 65536, "rx", DUR, WARM)
    testbed.run(DUR + 2_000_000)
    assert 10 < workload.throughput_gbps() < 40


def test_tcp_stream_tx_measures_throughput():
    testbed = Testbed("local")
    workload = TcpStream(testbed.server, testbed.server_core(0),
                         Flow.make(0), 65536, "tx", DUR, WARM)
    testbed.run(DUR + 2_000_000)
    assert 25 < workload.throughput_gbps() < 60


def test_pktgen_rates_match_paper():
    mpps = {}
    for config in ("local", "remote"):
        testbed = Testbed(config)
        workload = Pktgen(testbed.server, testbed.server_core(0), 1500,
                          DUR, WARM)
        testbed.run(DUR + 2_000_000)
        mpps[config] = workload.mpps()
    assert mpps["local"] == pytest.approx(4.1, rel=0.05)
    assert mpps["remote"] == pytest.approx(3.08, rel=0.05)


def test_pktgen_validates_packet_size():
    testbed = Testbed("local")
    with pytest.raises(ValueError):
        Pktgen(testbed.server, testbed.server_core(0), 10, DUR, WARM)


def test_tcp_rr_records_latencies():
    testbed = Testbed("local")
    workload = TcpRr(testbed, 64, DUR, WARM)
    testbed.run(DUR + 2_000_000)
    assert len(workload.latencies) > 50
    assert workload.average_rtt_ns() > 1000
    assert workload.p99_rtt_ns() >= workload.average_rtt_ns() * 0.9


def test_udp_pingpong_latency():
    testbed = Testbed("local")
    workload = UdpPingPong(testbed, 64, DUR, WARM)
    testbed.run(DUR + 2_000_000)
    assert 1 < workload.average_one_way_us() < 50


def test_stream_thread_moves_bytes_across_interconnect():
    testbed = Testbed("local")
    host = testbed.server
    core = host.machine.cores_on_node(0)[5]
    stream = StreamThread(host, core, target_node=1, kind="write",
                          duration_ns=DUR, warmup_ns=WARM)
    testbed.run(DUR + 2_000_000)
    assert stream.bandwidth_gbps() > 5
    assert testbed.server.machine.interconnect.link(
        0, 1).bytes_total > 0


@pytest.mark.parametrize("warmup_ns", [0, WARM])
def test_stream_thread_meters_chunks_from_warmup(warmup_ns):
    """Every chunk issued at or after warmup is measured, including one
    issued at exactly t = warmup (t = 0 without warmup)."""
    testbed = Testbed("local")
    host = testbed.server
    memory = host.machine.memory
    issued = []
    charge = memory.cpu_stream_read

    def counting(node, region, nbytes):
        issued.append(host.machine.env.now)
        return charge(node, region, nbytes)

    memory.cpu_stream_read = counting
    stream = StreamThread(host, host.machine.cores_on_node(0)[5],
                          target_node=1, kind="read", duration_ns=DUR,
                          warmup_ns=warmup_ns)
    testbed.run(DUR + 2_000_000)
    assert issued[0] == 0 and issued[-1] < DUR
    measured = [t for t in issued if t >= warmup_ns]
    assert 0 < len(measured) <= len(issued)
    assert stream.meter.bytes_total == CHUNK * len(measured)


def test_stream_thread_validates_kind():
    testbed = Testbed("local")
    with pytest.raises(ValueError):
        StreamThread(testbed.server, testbed.server_core(0), 1, "scan",
                     DUR, WARM)


def test_spawn_stream_pairs_places_and_runs():
    testbed = Testbed("local")
    pairs = spawn_stream_pairs(testbed.server, 3, DUR, WARM,
                               skip_cores=[testbed.server_core(0)])
    assert len(pairs) == 3
    used = {t.core.core_id for p in pairs
            for t in (p.reader.thread, p.writer.thread)}
    assert len(used) == 6
    assert testbed.server_core(0).core_id not in used
    testbed.run(DUR + 2_000_000)
    assert all(p.bandwidth_gbps() > 0 for p in pairs)


def test_spawn_stream_pairs_rejects_overflow():
    testbed = Testbed("local")
    with pytest.raises(RuntimeError):
        spawn_stream_pairs(testbed.server, 100, DUR)


def test_memcached_set_fraction_validated():
    testbed = Testbed("local")
    cores = testbed.server.machine.cores_on_node(0)[:2]
    with pytest.raises(ValueError):
        MemcachedServer(testbed.server, cores, 1.5, DUR)
    with pytest.raises(ValueError):
        MemcachedServer(testbed.server, [], 0.5, DUR)


def test_memcached_counts_transactions():
    testbed = Testbed("local")
    cores = testbed.server.machine.cores_on_node(0)[:2]
    server = MemcachedServer(testbed.server, cores, 0.5, DUR, WARM)
    testbed.run(DUR + 2_000_000)
    assert server.transactions_ktps() > 1


def test_memcached_offered_load_caps_rate():
    testbed = Testbed("local")
    cores = testbed.server.machine.cores_on_node(0)[:2]
    server = MemcachedServer(testbed.server, cores, 0.0, DUR, WARM,
                             offered_ktps=2.0)
    testbed.run(DUR + 2_000_000)
    assert server.transactions_ktps() == pytest.approx(2.0, rel=0.2)


def test_pagerank_runs_to_completion():
    testbed = Testbed("local")
    cores = (testbed.server.machine.cores_on_node(0)[6:10]
             + testbed.server.machine.cores_on_node(1)[:4])
    pagerank = PageRank(testbed.server, cores,
                        work_bytes_per_thread=2_000_000)
    while not pagerank.finished():
        testbed.run(testbed.env.now + 5_000_000)
    assert pagerank.runtime_ns() > 0
    assert len(pagerank.completion_times) == 8


def test_pagerank_needs_cores():
    testbed = Testbed("local")
    with pytest.raises(ValueError):
        PageRank(testbed.server, [], 1000)

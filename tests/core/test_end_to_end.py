"""End-to-end invariants across the three configurations.

These tests exercise the full stack (wire -> firmware -> PF -> memory ->
stack -> workload) and pin down the paper's central identity:
``ioctopus`` must be *behaviourally indistinguishable* from ``local`` for
any workload, any message size, any direction — while ``remote`` must
never win.
"""

import pytest

from repro.core import Testbed
from repro.nic.packet import Flow
from repro.workloads import Pktgen, TcpStream

DUR = 12_000_000
WARM = 3_000_000


def stream_rate(config, msg, direction):
    testbed = Testbed(config)
    workload = TcpStream(testbed.server, testbed.server_core(0),
                         Flow.make(0), msg, direction, DUR, WARM)
    testbed.run(DUR + 3_000_000)
    return workload.throughput_gbps()


@pytest.mark.parametrize("msg", [256, 8192, 65536])
@pytest.mark.parametrize("direction", ["rx", "tx"])
def test_ioctopus_identical_to_local(msg, direction):
    local = stream_rate("local", msg, direction)
    ioct = stream_rate("ioctopus", msg, direction)
    assert ioct == pytest.approx(local, rel=0.01)


@pytest.mark.parametrize("msg", [256, 8192, 65536])
def test_remote_never_wins_rx(msg):
    assert stream_rate("remote", msg, "rx") < stream_rate("local", msg,
                                                          "rx")


def test_pktgen_determinism_across_runs():
    def once():
        testbed = Testbed("remote", seed=5)
        workload = Pktgen(testbed.server, testbed.server_core(0), 512,
                          DUR, WARM)
        testbed.run(DUR + 3_000_000)
        return workload.meter.bytes_total

    assert once() == once()


def test_ioctopus_dma_never_crosses_interconnect():
    testbed = Testbed("ioctopus")
    workload = TcpStream(testbed.server, testbed.server_core(0),
                         Flow.make(0), 65536, "rx", DUR, WARM)
    testbed.run(DUR + 3_000_000)
    assert workload.throughput_gbps() > 10
    for link in testbed.server.machine.interconnect.links():
        assert link.bytes_total == 0


def test_remote_dma_all_crosses_interconnect():
    testbed = Testbed("remote")
    workload = TcpStream(testbed.server, testbed.server_core(0),
                         Flow.make(0), 65536, "rx", DUR, WARM)
    testbed.run(DUR + 3_000_000)
    crossed = testbed.server.machine.interconnect.link(
        0, 1).bytes_total
    # At least the payload itself crossed NIC-socket -> thread-socket.
    assert crossed >= workload.meter.bytes_total

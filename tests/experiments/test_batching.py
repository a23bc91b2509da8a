"""Packet-train coalescing + adaptive early termination.

Four contracts:

(a) ``accuracy="exact"`` reproduces the determinism goldens in
    ``tests/experiments/test_determinism.py`` byte-for-byte — the train
    fast path must be completely inert there; here, exact only has to
    plan no trains.
(b) ``accuracy="adaptive"`` lands every fig06/fig08 quick-point
    metric within 1% relative error of exact, while cutting simulated
    events per packet by at least 3x on the fig08 pktgen point — and
    its own values are pinned exactly, so a float-order slip in the
    train loop cannot hide inside that tolerance.
(c) Trains de-coalesce at steady-state boundaries: an ARFS migration and
    a PF-failover fault both reset the train length mid-run.
(d) A latency point ends early on adaptive: fig12's STREAM-loaded
    sockperf average stops before the window closes and stays within
    0.5% of exact (its values are pinned in (b)'s golden).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import Testbed
from repro.experiments.runners import (run_pktgen, run_rr, run_tcp_stream,
                                       run_until_converged, warmup_of)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.nic.packet import Flow
from repro.units import KB
from repro.workloads.netperf import TcpStream
from repro.workloads.pktgen import Pktgen
from repro.workloads.train import TrainGovernor

D = 10_000_000  # the "quick" fidelity duration


def udp_latency_us(config: str, pairs: int, duration_ns: int,
                   accuracy: str = "exact") -> float:
    """fig12's point: 64 B sockperf beside ``pairs`` STREAM pairs, as
    the one-way latency in us the figure prints."""
    rtt = run_rr(config, 64, duration_ns, protocol="udp",
                 stream_pairs=pairs, accuracy=accuracy)
    return rtt / 2 / 1000.0


def assert_within(exact: dict, adaptive: dict, rel: float = 0.01) -> None:
    assert set(exact) == set(adaptive)
    for key, want in exact.items():
        got = adaptive[key]
        if want == 0:
            assert got == pytest.approx(0.0, abs=1e-9), key
        else:
            assert got == pytest.approx(want, rel=rel), key


# ------------------------------------------------------------- (a) exact

def test_exact_mode_never_plans_trains():
    """A workload built without a governor, as the exact runners build
    it, runs one event per burst."""
    testbed = Testbed("remote", seed=0)
    workload = Pktgen(testbed.server, testbed.server_core(0), 256, D,
                      warmup_of(D))
    testbed.run(D)
    assert workload.governor is None
    bursts = workload.meter.messages_total // 64
    assert bursts > 0
    assert testbed.env.events_processed >= bursts


# ---------------------------------------------------------- (b) fidelity

@pytest.mark.parametrize("config,message_bytes", [
    ("remote", 4096), ("ioctopus", 4096)])
def test_adaptive_matches_exact_fig06_points(config, message_bytes):
    exact = run_tcp_stream(config, message_bytes, "rx", D, seed=0,
                           accuracy="exact")
    adaptive = run_tcp_stream(config, message_bytes, "rx", D, seed=0,
                              accuracy="adaptive")
    assert_within(exact, adaptive)


@pytest.mark.parametrize("config,packet_bytes", [
    ("remote", 256), ("ioctopus", 1500)])
def test_adaptive_matches_exact_fig08_points(config, packet_bytes):
    exact = run_pktgen(config, packet_bytes, D, seed=0, accuracy="exact")
    adaptive = run_pktgen(config, packet_bytes, D, seed=0,
                          accuracy="adaptive")
    assert_within(exact, adaptive)


@pytest.mark.parametrize("point,want", [
    pytest.param(partial(run_pktgen, "remote", 256, D, seed=0), {
        "throughput_gbps": 6.220492620188885,
        "mpps": 3.037349912201604,
        "membw_gbps": 9.333150261511335,
    }, id="pktgen-remote-256"),
    pytest.param(partial(run_tcp_stream, "ioctopus", 4096, "rx", D,
                         seed=0), {
        "throughput_gbps": 17.70316842221149,
        "membw_gbps": 0.0,
        "cpu_cores": 1.0,
    }, id="tcp-rx-ioctopus-4096"),
    pytest.param(partial(run_tcp_stream, "local", 4096, "tx", D,
                         seed=1), {
        "throughput_gbps": 16.10234617779354,
        "membw_gbps": 6.587948860415962,
        "cpu_cores": 1.0,
    }, id="tcp-tx-local-4096"),
    pytest.param(partial(udp_latency_us, "remote", 4, D),
                 5.1152374517374515, id="udp-latency-remote-4-pairs"),
    pytest.param(partial(udp_latency_us, "ioctopus", 6, D),
                 4.4705, id="udp-latency-ioctopus-6-pairs"),
])
def test_adaptive_golden(point, want):
    assert point(accuracy="adaptive") == want


def test_adaptive_cuts_events_per_packet_3x():
    counts = {}
    for accuracy in ("exact", "adaptive"):
        adaptive = accuracy == "adaptive"
        testbed = Testbed("remote", seed=0)
        workload = Pktgen(testbed.server, testbed.server_core(0), 256, D,
                          warmup_of(D),
                          governor=TrainGovernor() if adaptive else None)
        if adaptive:
            run_until_converged(testbed, D, workload.meter.mpps)
        else:
            testbed.run(D + D // 5)
        packets = workload.meter.messages_total
        assert packets > 0
        counts[accuracy] = testbed.env.events_processed / packets
    assert counts["exact"] >= 3.0 * counts["adaptive"]


# ------------------------------------------------------ (c) de-coalescing

def _adaptive_stream(config: str, duration_ns: int, seed: int = 0):
    testbed = Testbed(config, seed=seed)
    host = testbed.server
    workload = TcpStream(host, host.machine.cores_on_node(0)[0],
                         Flow.make(0), 64 * KB, "rx", duration_ns,
                         warmup_of(duration_ns), governor=TrainGovernor())
    return testbed, workload


def test_arfs_migration_decoalesces_train():
    duration = 40_000_000
    testbed, workload = _adaptive_stream("ioctopus", duration)
    host = testbed.server
    target_core = host.machine.cores_on_node(1)[0]

    def migrator():
        yield duration // 2
        host.scheduler.set_affinity(workload.thread, target_core)

    testbed.env.process(migrator(), name="migrator")
    testbed.run(duration)
    governor = workload.governor
    # Trains had grown before the boundary ...
    assert governor.max_bursts_seen > 1
    # ... and the migration (new core + queues + steering epoch) reset
    # them.  The workload kept running on the new core afterwards.
    assert governor.decoalesce_events >= 1
    assert workload.meter.messages_total > 0


def test_pf_failover_decoalesces_train():
    duration = 40_000_000
    testbed, workload = _adaptive_stream("ioctopus", duration)
    # PF0 is local to the node-0 socket serving the flow; killing it
    # mid-run forces the octoNIC MPFS failover (steering epoch bump).
    plan = FaultPlan().add(
        FaultSpec("pf_down", at_ns=duration // 2,
                  duration_ns=duration // 4, pf_id=0))
    injector = FaultInjector(testbed.env, plan,
                             device=testbed.server.nic,
                             wire=testbed.wire,
                             machine=testbed.server.machine,
                             rng=testbed.server.machine.rng)
    injector.start()
    testbed.run(duration)
    governor = workload.governor
    assert governor.max_bursts_seen > 1
    assert governor.decoalesce_events >= 1
    # The fault fired and the flow survived it.
    assert any(e == "fault.pf_down" for _, e, _ in injector.events)
    assert workload.meter.messages_total > 0


# ------------------------------------------------- (d) latency early stop

@pytest.mark.parametrize("config,pairs", [
    # remote at 4 pairs is fig12's cell on a rounding edge: exact
    # 5.1149 us and adaptive 5.1152 us print as 5.11 and 5.12.
    ("remote", 4), ("ioctopus", 6)])
def test_adaptive_matches_exact_fig12_points(config, pairs):
    exact = udp_latency_us(config, pairs, D, accuracy="exact")
    adaptive = udp_latency_us(config, pairs, D, accuracy="adaptive")
    assert adaptive == pytest.approx(exact, rel=0.005)


class _Recorder:
    """Stands in for an ObsSession: keeps the testbed a runner attaches."""

    testbed = None

    def attach(self, testbed, horizon_ns=None):
        self.testbed = testbed


def test_adaptive_latency_point_stops_early():
    recorder = _Recorder()
    rtt = run_rr("remote", 64, D, protocol="udp", stream_pairs=4,
                 accuracy="adaptive", obs=recorder)
    assert warmup_of(D) < recorder.testbed.env.now < D
    assert rtt > 0

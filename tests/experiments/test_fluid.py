"""Fluid accuracy tier: closed-form steady-interval service.

Contracts, mirroring ``tests/experiments/test_batching.py`` one tier up:

(a) ``accuracy="fluid"`` lands every fig06/fig08/fig10 quick-point
    metric within 2% relative error of exact, and its own values are
    pinned exactly (including a memcached point whose same-type runs
    really coalesce), so a float-order slip in the interval loop cannot
    hide inside that tolerance.
(b) Fluid cuts simulated events per packet below even the adaptive
    tier on the fig08 pktgen point — the interval engine is doing work
    coalescing alone does not.
(c) A mid-run ``BandwidthServer.set_rate`` (fault throttle, PCIe
    retraining) de-coalesces every fluid flow through the global rate
    epoch, then the flow re-settles.
(d) Coarse-grained flows (per-burst wall above
    ``FLUID_COALESCE_WALL_NS``) are never fluid-coalesced: their
    burst-phase contention is part of the exact signal.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import Testbed
from repro.experiments.fig10_memcached import run_memcached
from repro.experiments.runners import (run_pktgen, run_tcp_stream,
                                       run_until_converged, warmup_of)
from repro.sim.fluid import fluid_region
from repro.units import KB
from repro.workloads.memcached import MemcachedServer
from repro.workloads.pktgen import Pktgen
from repro.workloads.train import FLUID_COALESCE_WALL_NS, FluidGovernor

D = 10_000_000  # the "quick" fidelity duration


def assert_within(exact: dict, fluid: dict, rel: float = 0.02) -> None:
    assert set(exact) == set(fluid)
    for key, want in exact.items():
        got = fluid[key]
        if want == 0:
            assert got == pytest.approx(0.0, abs=1e-9), key
        else:
            assert got == pytest.approx(want, rel=rel), key


# ---------------------------------------------------------- (a) fidelity

@pytest.mark.parametrize("config,message_bytes", [
    ("remote", 4096), ("ioctopus", 65536)])
def test_fluid_matches_exact_fig06_points(config, message_bytes):
    exact = run_tcp_stream(config, message_bytes, "rx", D, seed=0,
                           accuracy="exact")
    fluid = run_tcp_stream(config, message_bytes, "rx", D, seed=0,
                           accuracy="fluid")
    assert_within(exact, fluid)


@pytest.mark.parametrize("config,packet_bytes", [
    ("remote", 256), ("ioctopus", 1500)])
def test_fluid_matches_exact_fig08_points(config, packet_bytes):
    exact = run_pktgen(config, packet_bytes, D, seed=0, accuracy="exact")
    fluid = run_pktgen(config, packet_bytes, D, seed=0, accuracy="fluid")
    assert_within(exact, fluid)


def test_fluid_matches_exact_fig10_point():
    duration = 3 * D
    exact = run_memcached("remote", 0.5, duration, accuracy="exact")
    fluid = run_memcached("remote", 0.5, duration, accuracy="fluid")
    assert_within(exact, fluid)


def _memcached_4k(set_fraction: float, accuracy: str) -> dict:
    """Two workers on two connections with 4 KB values: unlike the fig10
    point (sockets rotate, 512 KB transactions are too coarse), its
    same-type runs coalesce into steady intervals under fluid."""
    testbed = Testbed("ioctopus", accuracy=accuracy)
    host = testbed.server
    server = MemcachedServer(
        host, host.machine.cores_on_node(testbed.server_workload_node)[:2],
        set_fraction, D, warmup_of(D), value_bytes=4 * KB, connections=2)
    testbed.run(D + D // 5)
    return {"ktps": server.transactions_ktps(),
            "events": testbed.env.events_processed,
            "steady_intervals": fluid_region(testbed.env).steady_intervals}


@pytest.mark.parametrize("point,want", [
    pytest.param(partial(run_pktgen, "remote", 256, D, seed=0), {
        "throughput_gbps": 6.220492620188885,
        "mpps": 3.037349912201604,
        "membw_gbps": 9.331255926013064,
    }, id="pktgen-remote-256"),
    pytest.param(partial(run_tcp_stream, "ioctopus", 4096, "rx", D,
                         seed=0), {
        "throughput_gbps": 17.70315313840411,
        "membw_gbps": 0.0,
        "cpu_cores": 1.0,
    }, id="tcp-rx-ioctopus-4096"),
    pytest.param(partial(run_tcp_stream, "local", 4096, "tx", D,
                         seed=1), {
        "throughput_gbps": 16.05794098552496,
        "membw_gbps": 6.7286764463446875,
        "cpu_cores": 1.0,
    }, id="tcp-tx-local-4096"),
    pytest.param(partial(_memcached_4k, 0.0), {
        "ktps": 276.5046609104101,
        "events": 74,
        "steady_intervals": 22,
    }, id="memcached-4k-get"),
    pytest.param(partial(_memcached_4k, 1.0), {
        "ktps": 229.42105496723659,
        "events": 66,
        "steady_intervals": 22,
    }, id="memcached-4k-set"),
])
def test_fluid_golden(point, want):
    assert point(accuracy="fluid") == want


# ------------------------------------------------------ (b) event count

def test_fluid_cuts_events_below_adaptive():
    counts = {}
    for accuracy in ("exact", "adaptive", "fluid"):
        testbed = Testbed("remote", seed=0, accuracy=accuracy)
        workload = Pktgen(testbed.server, testbed.server_core(0), 256, D,
                          warmup_of(D))
        if testbed.env.adaptive:
            run_until_converged(testbed, D, workload.meter.mpps)
        else:
            testbed.run(D + D // 5)
        packets = workload.meter.messages_total
        assert packets > 0
        counts[accuracy] = testbed.env.events_processed / packets
    assert counts["adaptive"] < counts["exact"]
    assert counts["fluid"] < 0.5 * counts["adaptive"]


def test_fluid_grants_steady_intervals():
    testbed = Testbed("remote", seed=0, accuracy="fluid")
    workload = Pktgen(testbed.server, testbed.server_core(0), 256, D,
                      warmup_of(D))
    testbed.run(D)
    region = fluid_region(testbed.env)
    assert region.flows >= 1
    assert region.steady_intervals > 0
    assert region.bursts_advanced > region.steady_intervals
    assert workload.governor.max_bursts_seen > 1


# ---------------------------------------------------- (c) rate changes

def test_set_rate_decoalesces_fluid_flows():
    testbed = Testbed("remote", seed=0, accuracy="fluid")
    env = testbed.env
    workload = Pktgen(testbed.server, testbed.server_core(0), 256, D,
                      warmup_of(D))
    qpi = testbed.server.machine.interconnect.links()[0].server

    def throttler():
        yield env.timeout(D // 2)
        qpi.set_rate(qpi.bytes_per_sec / 2)

    env.process(throttler(), name="throttler")
    testbed.run(D)
    governor = workload.governor
    region = fluid_region(env)
    # Trains had grown, the epoch bump reset them, and the flow then
    # re-settled and kept producing.
    assert governor.max_bursts_seen > 1
    assert governor.decoalesce_events >= 1
    assert region.invalidations >= 1
    assert workload.meter.messages_total > 0


# ------------------------------------------------- (d) coarse-flow gate

def test_coarse_flows_never_fluid_coalesce():
    env = Testbed("remote", seed=0, accuracy="fluid").env
    governor = FluidGovernor(fluid_region(env))
    token = ("flow",)
    # A memcached-like flow: stable, but each burst is a ~300 us
    # transaction — above the coalescing wall gate.
    for _ in range(5):
        k = governor.plan(token)
        governor.observe(300_000 * k, k)
    assert governor.plan(token) == 1
    # A pktgen-like flow on a fresh governor coalesces fine.
    fine = FluidGovernor(fluid_region(env))
    for _ in range(5):
        k = fine.plan(token)
        fine.observe(int(FLUID_COALESCE_WALL_NS * 0.2) * k, k)
    assert fine.plan(token) > 1


def test_exact_mode_never_enters_fluid_intervals():
    testbed = Testbed("remote", seed=0, accuracy="exact")
    Pktgen(testbed.server, testbed.server_core(0), 256, D, warmup_of(D))
    testbed.run(D)
    region = getattr(testbed.env, "_fluid_region", None)
    assert region is None or region.steady_intervals == 0
    assert testbed.env.fluid_span_ns == 0

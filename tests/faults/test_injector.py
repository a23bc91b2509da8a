"""Tests for the fault injector against live testbed components."""

import pytest

from repro.core import Testbed
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.nic.packet import Flow
from repro.sim.errors import DeviceGoneError


def make_injector(plan, config="ioctopus", seed=0):
    testbed = Testbed(config, seed=seed)
    injector = FaultInjector(testbed.env, plan, device=testbed.server.nic,
                            wire=testbed.wire,
                            machine=testbed.server.machine,
                            rng=testbed.server.machine.rng)
    return testbed, injector


def test_pf_down_fires_and_recovers_on_time():
    plan = FaultPlan().add(
        FaultSpec("pf_down", at_ns=1_000, duration_ns=2_000, pf_id=1))
    testbed, injector = make_injector(plan)
    nic = testbed.server.nic
    injector.start()
    testbed.run(999)
    assert nic.pf_alive(1)
    testbed.run(1_500)
    assert not nic.pf_alive(1)
    assert not nic.pf(1).alive
    testbed.run(3_500)
    assert nic.pf_alive(1)
    assert [(t, e) for t, e, _ in injector.events] == [
        (1_000, "fault.pf_down"), (3_000, "recover.pf_down")]


def test_permanent_fault_never_recovers():
    plan = FaultPlan().add(FaultSpec("pf_down", at_ns=500, pf_id=1))
    testbed, injector = make_injector(plan)
    injector.start()
    testbed.run(1_000_000)
    assert not testbed.server.nic.pf_alive(1)
    assert len(injector.events) == 1


def test_dead_pf_rejects_dma():
    plan = FaultPlan().add(FaultSpec("pf_down", at_ns=100, pf_id=0))
    testbed, injector = make_injector(plan)
    injector.start()
    testbed.run(200)
    pf = testbed.server.nic.pf(0)
    region = testbed.server.machine.alloc_region("buf", 0, 4096)
    with pytest.raises(DeviceGoneError):
        pf.dma_write(region, 64)
    with pytest.raises(DeviceGoneError):
        pf.dma_read(region, 64)
    with pytest.raises(DeviceGoneError):
        pf.mmio_latency(0)


def test_pcie_degrade_reduces_rate_then_restores():
    plan = FaultPlan().add(
        FaultSpec("pcie_degrade", at_ns=1_000, duration_ns=1_000,
                  pf_id=0, lanes=2))
    testbed, injector = make_injector(plan)
    link = testbed.server.nic.pf(0).link
    full_rate = link.bytes_per_sec
    injector.start()
    testbed.run(1_500)
    assert link.is_degraded
    assert link.active_lanes == 2
    assert link.bytes_per_sec == pytest.approx(full_rate * 2 / 8)
    testbed.run(2_500)
    assert not link.is_degraded
    assert link.bytes_per_sec == pytest.approx(full_rate)


def test_wire_loss_burst_drops_and_stops():
    plan = FaultPlan().add(
        FaultSpec("wire_loss", at_ns=0, duration_ns=10_000,
                  loss_probability=0.5))
    testbed, injector = make_injector(plan)
    wire = testbed.wire
    injector.start()
    testbed.run(100)
    assert wire.is_impaired
    wire.send("a_to_b", 1000, 1448)
    assert wire.drops_total > 0
    assert wire.retransmitted_packets == wire.drops_total
    testbed.run(20_000)
    assert not wire.is_impaired
    before = wire.drops_total
    wire.send("a_to_b", 1000, 1448)
    assert wire.drops_total == before


def test_qpi_throttle_and_release():
    plan = FaultPlan().add(
        FaultSpec("qpi_throttle", at_ns=0, duration_ns=5_000,
                  src_node=0, dst_node=1, throttle_factor=0.25))
    testbed, injector = make_injector(plan)
    link = testbed.server.machine.interconnect.link(0, 1)
    base = link.bytes_per_sec
    injector.start()
    testbed.run(100)
    assert link.is_throttled
    assert link.bytes_per_sec == pytest.approx(base * 0.25)
    testbed.run(10_000)
    assert not link.is_throttled
    assert link.bytes_per_sec == pytest.approx(base)


def test_injector_validates_targets_up_front():
    plan = FaultPlan().add(FaultSpec("pf_down", at_ns=0, pf_id=7))
    testbed = Testbed("ioctopus")
    with pytest.raises(ValueError):
        FaultInjector(testbed.env, plan, device=testbed.server.nic)
    with pytest.raises(ValueError):
        FaultInjector(testbed.env,
                      FaultPlan().add(FaultSpec("wire_loss", at_ns=0,
                                                loss_probability=0.1)))


def test_injector_cannot_start_twice():
    testbed, injector = make_injector(FaultPlan())
    injector.start()
    with pytest.raises(RuntimeError):
        injector.start()


def test_same_seed_identical_event_trace():
    # Non-fatal kinds only, overlapping one another.  The plan is fixed;
    # the testbed seed drives the wire-loss draws.
    plan = FaultPlan()
    plan.add(FaultSpec("wire_loss", at_ns=2_000_000, duration_ns=30_000_000,
                       loss_probability=0.02, corrupt_probability=0.005))
    plan.add(FaultSpec("pcie_degrade", at_ns=8_000_000,
                       duration_ns=12_000_000, pf_id=1, lanes=4))
    plan.add(FaultSpec("qpi_throttle", at_ns=15_000_000,
                       duration_ns=10_000_000, src_node=0, dst_node=1,
                       throttle_factor=0.5))

    def run(seed):
        testbed, injector = make_injector(plan, seed=seed)
        # Live traffic so wire-loss faults actually draw from the rng.
        from repro.units import KB
        from repro.workloads.netperf import TcpStream
        TcpStream(testbed.server, testbed.server_core(0), Flow.make(0),
                  64 * KB, "rx", 40_000_000)
        injector.start()
        testbed.run(60_000_000)
        return injector.rendered_events(), testbed.wire.drops_total

    events_a, drops_a = run(3)
    events_b, drops_b = run(3)
    events_c, drops_c = run(4)
    assert len(events_a) == 6         # three faults, three recoveries
    assert events_a == events_b
    assert drops_a == drops_b
    assert drops_a > 0
    assert drops_a != drops_c

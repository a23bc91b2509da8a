"""Tests for the programmable PCIe switch (§3.2)."""

import pytest

from repro.pcie import PcieSwitch
from repro.pcie.fabric import bifurcate
from repro.topology import dell_r730


@pytest.fixture
def machine():
    return dell_r730()


def test_attach_per_node_covers_every_socket(machine):
    switch = PcieSwitch(machine)
    pfs = switch.attach_per_node(8, name="octo")
    assert [pf.attach_node for pf in pfs] == [0, 1]
    assert all(pf.link.lanes == 8 for pf in pfs)


def test_switched_dma_pays_hop_latency(machine):
    switch = PcieSwitch(machine, hop_ns=150)
    switched = switch.attach(0, 8)
    (direct,) = bifurcate(machine, 8, [0], name="direct")
    region = machine.alloc_region("buf", 0, 8192)
    d_direct = direct.dma_write(region, 1500)
    d_switched = switched.dma_write(region, 1500)
    assert d_switched >= d_direct + 150


def test_switched_mmio_and_interrupt_pay_hop(machine):
    switch = PcieSwitch(machine, hop_ns=150)
    pf = switch.attach(0, 8)
    (direct,) = bifurcate(machine, 8, [0], name="d2")
    assert pf.mmio_latency(0) == direct.mmio_latency(0) + 150
    assert pf.interrupt_latency(0) == direct.interrupt_latency(0) + 150


def test_reattach_changes_locality(machine):
    switch = PcieSwitch(machine)
    pf = switch.attach(0, 8)
    region = machine.alloc_region("buf", 1, 8192)
    assert machine.memory.read_fresh_dma_line(1, region) > 0 or True
    pf.dma_write(region, 1500)
    remote_cost = machine.memory.read_fresh_dma_line(1, region)
    assert remote_cost > 0  # PF on node 0, memory on node 1
    pf.reattach(1)
    pf.dma_write(region, 1500)
    assert machine.memory.read_fresh_dma_line(1, region) == 0
    assert pf.reattach_count == 1


def test_reattach_validates_node(machine):
    switch = PcieSwitch(machine)
    pf = switch.attach(0, 8)
    with pytest.raises(ValueError):
        pf.reattach(9)
    pf.reattach(0)  # same node: no count
    assert pf.reattach_count == 0


def test_peer_to_peer_avoids_dram_and_interconnect(machine):
    switch = PcieSwitch(machine)
    a = switch.attach(0, 8)
    b = switch.attach(1, 8)
    delay = switch.peer_to_peer(a, b, 64 * 1024)
    assert delay >= 2 * switch.hop_ns
    for dram in machine.memory.drams:
        assert dram.read_bytes == 0 and dram.write_bytes == 0
    for link in machine.interconnect.links():
        assert link.bytes_total == 0


def test_peer_to_peer_requires_switch_members(machine):
    switch = PcieSwitch(machine)
    a = switch.attach(0, 8)
    (foreign,) = bifurcate(machine, 8, [0], name="x")
    with pytest.raises(ValueError):
        switch.peer_to_peer(a, foreign, 100)


def test_lanes_required_exceeds_bifurcation(machine):
    # Bifurcation: 16 lanes total.  The switch needs device-side plus
    # host-side lanes — the paper's "requires more lanes" drawback.
    switch = PcieSwitch(machine)
    switch.attach_per_node(8)
    assert switch.lanes_required() > 16
    assert switch.power_watts > 0

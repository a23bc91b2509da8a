"""Tests for the PCIe fabric: PFs, bifurcation, DMA/MMIO routing."""

import pytest

from repro.pcie import PhysicalFunction, bifurcate
from repro.sim.errors import DeviceGoneError
from repro.topology import dell_r730


@pytest.fixture
def machine():
    return dell_r730()


def test_bifurcate_splits_lanes_evenly(machine):
    pfs = bifurcate(machine, 16, [0, 1], name="octo")
    assert len(pfs) == 2
    assert all(pf.link.lanes == 8 for pf in pfs)
    assert [pf.attach_node for pf in pfs] == [0, 1]


def test_bifurcate_uneven_split_rejected(machine):
    with pytest.raises(ValueError):
        bifurcate(machine, 16, [0, 1, 2])
    with pytest.raises(ValueError):
        bifurcate(machine, 16, [])


def test_single_pf_keeps_all_lanes(machine):
    (pf,) = bifurcate(machine, 16, [0])
    assert pf.link.lanes == 16
    # PCIe gen3 x16 ~ 13.6 GB/s
    assert pf.link.bytes_per_sec == pytest.approx(16 * 0.85e9)


def test_pf_attach_node_validated(machine):
    with pytest.raises(ValueError):
        PhysicalFunction(machine, 0, attach_node=9, lanes=8)


def test_dma_write_local_uses_ddio(machine):
    (pf,) = bifurcate(machine, 16, [0])
    ring = machine.alloc_region("ring", 0, 8192)
    pf.dma_write(ring, 1500)
    assert machine.memory.read_fresh_dma_line(0, ring) == 0


def test_dma_write_remote_costs_more(machine):
    pf_local, pf_remote = bifurcate(machine, 16, [0, 1])
    ring = machine.alloc_region("ring", 0, 8192)
    pf_remote.dma_write(ring, 1500)
    assert machine.memory.read_fresh_dma_line(0, ring) > 0


def test_dma_charges_pcie_bandwidth(machine):
    (pf,) = bifurcate(machine, 16, [0])
    ring = machine.alloc_region("ring", 0, 8192)
    pf.dma_write(ring, 3000)
    pf.dma_read(ring, 1000)
    assert pf.link.upstream.bytes_total == 3000
    assert pf.link.downstream.bytes_total == 1000


def test_mmio_remote_crosses_interconnect(machine):
    pf_local, pf_remote = bifurcate(machine, 16, [0, 1])
    local = pf_local.mmio_latency(from_node=0)
    remote = pf_remote.mmio_latency(from_node=0)
    assert remote > local


def test_interrupt_latency_remote_higher(machine):
    pf_local, pf_remote = bifurcate(machine, 16, [0, 1])
    assert (pf_remote.interrupt_latency(to_node=0)
            > pf_local.interrupt_latency(to_node=0))


def test_is_local_to(machine):
    pf0, pf1 = bifurcate(machine, 16, [0, 1])
    assert pf0.is_local_to(0) and not pf0.is_local_to(1)
    assert pf1.is_local_to(1) and not pf1.is_local_to(0)


def test_zero_lane_link_rejected(machine):
    with pytest.raises(ValueError):
        PhysicalFunction(machine, 0, attach_node=0, lanes=0)


def test_link_degrade_and_restore(machine):
    (pf,) = bifurcate(machine, 16, [0])
    full = pf.link.bytes_per_sec
    pf.link.degrade(active_lanes=4)
    assert pf.link.is_degraded
    assert pf.link.active_lanes == 4
    assert pf.link.bytes_per_sec == pytest.approx(full / 4)
    assert pf.link.upstream.bytes_per_sec == pytest.approx(full / 4)
    pf.link.restore()
    assert not pf.link.is_degraded
    assert pf.link.bytes_per_sec == pytest.approx(full)


def test_link_degrade_validates_lanes(machine):
    (pf,) = bifurcate(machine, 16, [0])
    with pytest.raises(ValueError):
        pf.link.degrade(active_lanes=0)
    with pytest.raises(ValueError):
        pf.link.degrade(active_lanes=17)


def test_dead_pf_rejects_all_operations(machine):
    (pf,) = bifurcate(machine, 16, [0])
    ring = machine.alloc_region("ring", 0, 8192)
    pf.fail()
    assert not pf.alive
    assert "dead" in repr(pf)
    with pytest.raises(DeviceGoneError):
        pf.dma_write(ring, 64)
    with pytest.raises(DeviceGoneError):
        pf.dma_read(ring, 64)
    with pytest.raises(DeviceGoneError):
        pf.mmio_latency(0)
    with pytest.raises(DeviceGoneError):
        pf.interrupt_latency(0)
    pf.recover()
    assert pf.alive
    pf.dma_write(ring, 64)  # works again


def test_dead_pf_dma_raises_before_charging(machine):
    (pf,) = bifurcate(machine, 16, [0])
    ring = machine.alloc_region("ring", 0, 8192)
    pf.fail()
    with pytest.raises(DeviceGoneError, match="dma_write on removed PF"):
        pf.dma_write(ring, 64)
    with pytest.raises(DeviceGoneError, match="dma_read on removed PF"):
        pf.dma_read(ring, 64)
    assert pf.link.upstream.bytes_total == 0
    assert pf.link.downstream.bytes_total == 0
    assert machine.memory.llcs[0].resident_bytes(ring) == 0
    assert ring.dma_llc_node is None


def test_dma_write_one_burst_path_matches_batch_path():
    """One-burst writes skip the batch arithmetic: four of them at one
    instant charge what one four-burst write does."""
    bursts, size = 4, 1500
    results = []
    for calls in ([(size, 1)] * bursts, [(size * bursts, bursts)]):
        machine = dell_r730()
        (pf,) = bifurcate(machine, 16, [0])
        ring = machine.alloc_region("ring", 0, 1 << 20)
        delays = [pf.dma_write(ring, nbytes, nbursts=nbursts)
                  for nbytes, nbursts in calls]
        link = pf.link.upstream
        results.append((delays[-1], link.busy_ns, link.bytes_total,
                        link.queueing_delay(),
                        machine.memory.llcs[0].resident_bytes(ring),
                        ring.dma_llc_node))
    one, batch = results
    assert one == batch
    assert one[2] == one[4] == bursts * size

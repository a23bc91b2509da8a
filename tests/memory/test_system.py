"""Tests for the MemorySystem access router: the NUDMA rules themselves."""

import pytest

from repro.topology import dell_r730


@pytest.fixture
def machine():
    return dell_r730()


def ring(machine, node=0, size=64 * 1024):
    return machine.alloc_region("ring", node, size)


# ---------------------------------------------------------- DDIO rules


def test_local_dma_write_lands_in_llc(machine):
    r = ring(machine)
    machine.memory.dma_write(0, r, 1500)
    # Fresh read by the local CPU is a hit: zero extra latency.
    assert machine.memory.read_fresh_dma_line(0, r) == 0
    assert machine.memory.cpu_read_fresh_dma(0, r, 1500) == 0
    # No DRAM traffic for the DDIO-absorbed write.
    assert machine.nodes[0].dram.write_bytes == 0


def test_local_dma_write_spilling_past_the_slice_is_not_fresh(machine):
    """A write larger than the DDIO slice spills the rest to DRAM, and
    the region stops counting as freshly cached, even when an earlier
    write left it fresh."""
    memory = machine.memory
    slice_bytes = memory.ddio_slice_bytes(0)
    r = ring(machine, size=4 * slice_bytes)
    assert memory.dma_write(0, r, 1500) == 0
    assert r.dma_llc_node == 0
    assert memory.dma_write(0, r, slice_bytes + 4096) > 0
    assert machine.nodes[0].dram.write_bytes == 4096
    assert r.dma_llc_node is None
    assert memory.read_fresh_dma_line(0, r) > 0


def test_remote_dma_write_goes_to_dram_and_costs_a_miss(machine):
    r = ring(machine)
    machine.memory.dma_write(1, r, 1500)
    latency = machine.memory.read_fresh_dma_line(0, r)
    # The paper's ~80 ns completion-read delta (§5.1.1).
    assert 60 <= latency <= 120
    assert machine.nodes[0].dram.write_bytes == 1500


def test_remote_dma_write_invalidates_cached_copy(machine):
    r = ring(machine)
    machine.memory.cpu_stream_read(0, r, r.size)  # cache it
    assert machine.nodes[0].llc.residency(r) > 0.9
    machine.memory.dma_write(1, r, r.size)
    assert machine.nodes[0].llc.residency(r) < 0.1


def test_ddio_disabled_forces_dram_even_locally(machine):
    machine.memory.ddio_enabled = False
    r = ring(machine)
    machine.memory.dma_write(0, r, 1500)
    assert machine.nodes[0].dram.write_bytes == 1500
    assert machine.memory.read_fresh_dma_line(0, r) > 0


def test_remote_dma_write_crosses_interconnect(machine):
    r = ring(machine)
    link = machine.interconnect.link(1, 0)
    before = link.bytes_total
    machine.memory.dma_write(1, r, 1500)
    assert link.bytes_total - before == 1500


def test_local_dma_write_does_not_cross_interconnect(machine):
    r = ring(machine)
    for link in machine.interconnect.links():
        assert link.bytes_total == 0
    machine.memory.dma_write(0, r, 1500)
    for link in machine.interconnect.links():
        assert link.bytes_total == 0


# ------------------------------------------------------- DMA read rules


def test_local_dma_read_of_cached_data_skips_dram(machine):
    r = ring(machine)
    machine.memory.cpu_stream_read(0, r, r.size)
    machine.nodes[0].dram.read_bytes = 0
    machine.memory.dma_read(0, r, 1500)
    assert machine.nodes[0].dram.read_bytes == 0


def test_remote_dma_read_always_probes_dram(machine):
    # Paper §5.1.1: remote Tx memory bandwidth equals its throughput
    # because the parallel DRAM probe is charged even on an LLC hit.
    r = ring(machine)
    machine.memory.cpu_stream_read(0, r, r.size)
    machine.nodes[0].dram.read_bytes = 0
    machine.memory.dma_read(1, r, 1500)
    assert machine.nodes[0].dram.read_bytes == 1500


def test_dma_read_does_not_invalidate(machine):
    r = ring(machine)
    machine.memory.cpu_stream_read(0, r, r.size)
    resident = machine.nodes[0].llc.residency(r)
    machine.memory.dma_read(1, r, r.size)
    assert machine.nodes[0].llc.residency(r) == pytest.approx(resident)


# ----------------------------------------------------- CPU-side accesses


def test_cpu_stream_read_remote_crosses_interconnect(machine):
    remote = machine.alloc_region("remote", 1, 64 * 1024)
    link_back = machine.interconnect.link(1, 0)
    machine.memory.cpu_stream_read(0, remote, remote.size)
    assert link_back.bytes_total >= remote.size


def test_cpu_stream_delay_is_the_largest_term(machine):
    """An idle local 4 KB chunk pays its per-line stall (64 lines), which
    exceeds its DRAM service time; a remote one pays the interconnect
    round trip, its largest term."""
    stall = int(4096 / 64 * machine.memory._stall_per_line)
    local_in = machine.alloc_region("local-in", 0, 64 * 1024)
    local_out = machine.alloc_region("local-out", 0, 64 * 1024)
    assert machine.memory.cpu_stream_read(0, local_in, 4096) == stall
    assert machine.memory.cpu_stream_write(0, local_out, 4096) == stall
    idle = dell_r730()
    remote = idle.alloc_region("remote", 1, 64 * 1024)
    # 512 B of request headers out (1/8 of the payload), 4 KB back.
    round_trip = dell_r730().interconnect.round_trip(0, 1, 512, 4096)
    assert round_trip > stall
    assert idle.memory.cpu_stream_read(0, remote, 4096) == round_trip


def test_cpu_stream_read_cached_is_free(machine):
    r = ring(machine)
    machine.memory.cpu_stream_read(0, r, r.size)
    assert machine.memory.cpu_stream_read(0, r, r.size) == 0


def test_cpu_copy_charges_base_cost(machine):
    src = machine.alloc_region("src", 0, 4096)
    dst = machine.alloc_region("dst", 0, 4096)
    # Warm both so only the base per-byte cost remains.
    machine.memory.cpu_copy(0, src, dst, 4096)
    warm = machine.memory.cpu_copy(0, src, dst, 4096)
    expected = int(4096 * machine.spec.software.copy_ns_per_byte)
    assert warm == expected


def test_non_temporal_write_skips_llc_and_fill(machine):
    nt = machine.alloc_region("stream-out", 1, 64 * 1024, non_temporal=True)
    machine.memory.cpu_stream_write(0, nt, nt.size)
    assert machine.nodes[1].llc.residency(nt) == 0.0
    assert machine.nodes[0].llc.residency(nt) == 0.0
    assert machine.nodes[1].dram.write_bytes == nt.size
    # No write-allocate fill read.
    assert machine.nodes[1].dram.read_bytes == 0


def test_cacheline_read_miss_latency_local_vs_remote(machine):
    local = machine.alloc_region("l", 0, 4096)
    remote = machine.alloc_region("r", 1, 4096)
    local_lat = machine.memory.cacheline_read(0, local)
    remote_lat = machine.memory.cacheline_read(0, remote)
    assert local_lat >= machine.spec.memory.miss_latency_ns
    assert remote_lat > local_lat  # remote adds interconnect crossings


def test_cacheline_read_hit_after_fill(machine):
    r = machine.alloc_region("l", 0, 64)
    machine.memory.cacheline_read(0, r)
    assert machine.memory.cacheline_read(0, r) == 0


def test_fresh_dma_hit_requires_matching_node(machine):
    r = ring(machine, node=0)
    machine.memory.dma_write(0, r, 1500)
    # A core on node 1 reading the same completion misses across QPI.
    assert machine.memory.read_fresh_dma_line(1, r) > 0


def test_window_bandwidth_reporting(machine):
    r = ring(machine)
    machine.memory.reset_windows()
    machine.memory.dma_write(1, r, 10_000)
    machine.env._now = 1000  # 10 KB in 1 us = 10 GB/s
    assert machine.memory.node_window_bandwidth_bps(0) == pytest.approx(
        1e10, rel=0.01)
    assert machine.memory.total_window_bandwidth_bps() == pytest.approx(
        1e10, rel=0.01)

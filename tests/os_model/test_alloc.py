"""Tests for the NUMA-aware allocator."""

import pytest

from repro.os_model.alloc import (
    PAGE,
    NumaAllocator,
    OutOfMemoryError,
)
from repro.topology import dell_r730
from repro.topology.constants import CpuSpec, InterconnectSpec, MachineSpec, MemorySpec
from repro.topology.machine import Machine
from repro.units import KB, MB


@pytest.fixture
def allocator():
    return NumaAllocator(dell_r730())


def tiny_machine():
    spec = MachineSpec(
        name="tiny", num_nodes=2,
        cpu=CpuSpec(cores=2, ghz=2.0, llc_bytes=1 * MB),
        memory=MemorySpec(bytes_per_sec=1e9, capacity_bytes=1 * MB),
        interconnect=InterconnectSpec(bytes_per_sec_per_direction=1e9))
    return Machine(spec)


def test_local_policy_places_on_cpu_node(allocator):
    region = allocator.alloc("buf", 64 * KB, policy="local", cpu_node=1)
    assert region.home_node == 1


def test_node_policy_requires_and_uses_target(allocator):
    region = allocator.alloc("buf", 64 * KB, policy="node", target_node=0,
                             cpu_node=1)
    assert region.home_node == 0
    with pytest.raises(ValueError):
        allocator.alloc("buf", 64 * KB, policy="node")


def test_interleave_round_robins_nodes(allocator):
    nodes = [allocator.alloc(f"b{i}", 64 * KB,
                             policy="interleave").home_node
             for i in range(4)]
    assert nodes == [0, 1, 0, 1]


def test_preferred_falls_back_when_local_full():
    allocator = NumaAllocator(tiny_machine())
    allocator.alloc("hog", 1 * MB, policy="node", target_node=0)
    region = allocator.alloc("spill", 64 * KB, policy="preferred",
                             cpu_node=0)
    assert region.home_node == 1


def test_allocation_rounded_to_pages(allocator):
    region = allocator.alloc("b", 100, policy="local", cpu_node=0)
    assert region.allocated_bytes == PAGE
    assert allocator.allocated[0] == PAGE


def test_out_of_memory_raises():
    allocator = NumaAllocator(tiny_machine())
    allocator.alloc("a", 1 * MB, policy="node", target_node=0)
    with pytest.raises(OutOfMemoryError):
        allocator.alloc("b", 64 * KB, policy="node", target_node=0)


def test_free_returns_memory(allocator):
    region = allocator.alloc("b", 1 * MB, policy="local", cpu_node=0)
    used = allocator.allocated[0]
    allocator.free(region)
    assert allocator.allocated[0] == used - region.allocated_bytes
    with pytest.raises(ValueError):
        allocator.free(region)


def test_migrate_moves_home_node(allocator):
    region = allocator.alloc("b", 1 * MB, policy="local", cpu_node=0)
    moved = allocator.migrate(region, 1)
    assert moved.home_node == 1
    assert allocator.allocated[0] == 0
    assert allocator.allocated[1] == region.allocated_bytes


def test_migrate_same_node_is_noop(allocator):
    region = allocator.alloc("b", 64 * KB, policy="local", cpu_node=0)
    assert allocator.migrate(region, 0) is region


def test_invalid_args(allocator):
    with pytest.raises(ValueError):
        allocator.alloc("b", 0)
    with pytest.raises(ValueError):
        allocator.alloc("b", 100, policy="random")


def test_node_pressure(allocator):
    assert allocator.node_pressure(0) == 0.0
    allocator.alloc("b", allocator.capacity[0] // 2, policy="node",
                    target_node=0)
    assert allocator.node_pressure(0) == pytest.approx(0.5, rel=0.01)

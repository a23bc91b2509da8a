"""Tests for machine topology and presets."""

import pytest

from repro.experiments.runners import Window
from repro.topology import (
    dell_r730,
    dell_r730_spec,
    dell_skylake,
    dell_skylake_spec,
)


def test_r730_matches_paper_testbed():
    spec = dell_r730_spec()
    assert spec.num_nodes == 2
    assert spec.cpu.cores == 14
    assert spec.cpu.ghz == pytest.approx(2.0)


def test_skylake_matches_paper_testbed():
    spec = dell_skylake_spec()
    assert spec.num_nodes == 2
    assert spec.cpu.cores == 24


def test_machine_builds_all_cores():
    m = dell_r730()
    assert len(m.cores) == 28
    assert len(m.nodes) == 2
    assert m.node_of_core(0) == 0
    assert m.node_of_core(14) == 1
    assert [c.core_id for c in m.cores_on_node(1)] == list(range(14, 28))


def test_core_ids_unique_and_ordered():
    m = dell_skylake()
    assert [c.core_id for c in m.cores] == list(range(48))


def test_core_charge_accumulates():
    m = dell_r730()
    core = m.core(0)
    core.charge(100)
    core.charge(50)
    assert core.busy_ns == 150
    with pytest.raises(ValueError):
        core.charge(-1)


def test_core_window_utilization():
    """A window's busy time is the difference of the cores' cumulative
    ``busy_ns``: charges before it opened do not count."""
    m = dell_r730()
    core = m.core(3)
    core.charge(250)
    window = Window(m)
    core.charge(400)
    m.env._now = 1000
    assert window.busy_ns(core) / m.env.now == pytest.approx(0.4)
    assert window.busy_ns(m.core(4)) == 0


def test_alloc_region_places_on_node():
    m = dell_r730()
    r = m.alloc_region("buf", 1, 4096)
    assert r.home_node == 1
    with pytest.raises(ValueError):
        m.alloc_region("bad", 7, 4096)


def test_reset_measurement_windows():
    """A newly opened window reads zero, and opening it resets nothing:
    an earlier window still reports everything since it opened."""
    m = dell_r730()
    r = m.alloc_region("buf", 0, 4096)
    earlier = Window(m)
    m.memory.dma_write(1, r, 4096)  # remote: lands in node 0's DRAM
    m.core(0).charge(100)
    m.env._now = 1000
    window = Window(m)
    assert window.membw_gbps(1000) == 0.0
    assert window.busy_ns(m.core(0)) == 0
    assert earlier.membw_gbps(1000) == 4096 * 8 / 1000
    assert earlier.busy_ns(m.core(0)) == 100


def test_seed_controls_rng():
    a, b = dell_r730(seed=1), dell_r730(seed=1)
    assert a.rng.random() == b.rng.random()
    c = dell_r730(seed=2)
    assert a.rng.random() != c.rng.random()


def test_invalid_spec_rejected():
    from repro.topology.constants import (CpuSpec, InterconnectSpec,
                                          MachineSpec, MemorySpec)
    with pytest.raises(ValueError):
        MachineSpec(
            name="bad", num_nodes=0,
            cpu=CpuSpec(cores=1, ghz=1.0, llc_bytes=1),
            memory=MemorySpec(bytes_per_sec=1.0),
            interconnect=InterconnectSpec(bytes_per_sec_per_direction=1.0))


def test_machine_repr_mentions_name():
    assert "dell-r730" in repr(dell_r730())

"""Tests for IOctoSG fragment hints (§3.3)."""

import pytest

from repro.core.sg import (
    SgFragment,
    plan_fragments,
    transmit_with_hints,
    transmit_without_hints,
)
from repro.nic.device import NicDevice
from repro.nic.firmware import OctoFirmware
from repro.pcie.fabric import bifurcate
from repro.topology import dell_r730


@pytest.fixture
def setup():
    machine = dell_r730()
    pfs = bifurcate(machine, 16, [0, 1], name="octo")
    device = NicDevice(machine, pfs, OctoFirmware(2))
    frag0 = SgFragment(machine.alloc_region("page-a", 0, 4096), 4096)
    frag1 = SgFragment(machine.alloc_region("page-b", 1, 4096), 4096)
    return machine, device, [frag0, frag1]


def test_fragment_validates_size():
    from repro.memory.region import Region
    region = Region(name="r", home_node=0, size=64)
    with pytest.raises(ValueError):
        SgFragment(region, 0)


def test_plan_assigns_local_pf_per_fragment(setup):
    machine, device, fragments = setup
    hints = plan_fragments(device, fragments)
    assert [h.pf_id for h in hints] == [0, 1]


def test_plan_falls_back_to_pf0_without_local_pf():
    machine = dell_r730()
    (pf,) = bifurcate(machine, 16, [0])
    device = NicDevice(machine, [pf], OctoFirmware(1))
    fragment = SgFragment(machine.alloc_region("page", 1, 4096), 4096)
    hints = plan_fragments(device, [fragment])
    assert hints[0].pf_id == 0


def test_hinted_transmit_avoids_interconnect(setup):
    machine, device, fragments = setup
    hints = plan_fragments(device, fragments)
    transmit_with_hints(device, hints)
    for link in machine.interconnect.links():
        assert link.bytes_total == 0


def test_unhinted_transmit_crosses_interconnect(setup):
    machine, device, fragments = setup
    hints = plan_fragments(device, fragments)
    transmit_without_hints(device, 0, hints)
    # Fragment on node 1 read through PF 0 crosses the interconnect.
    crossed = sum(link.bytes_total
                  for link in machine.interconnect.links())
    assert crossed >= 4096


def test_empty_hint_list_rejected(setup):
    machine, device, fragments = setup
    with pytest.raises(ValueError):
        transmit_with_hints(device, [])
    with pytest.raises(ValueError):
        transmit_without_hints(device, 0, [])

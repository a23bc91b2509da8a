"""Tests for the testbed configurations (§5 'Evaluated configurations')."""

import pytest

from repro.components import PRESETS, SystemConfig
from repro.core import Testbed, TestbedBuilder
from repro.core.teaming import OctoTeamDriver
from repro.os_model.driver import StandardDriver


def test_all_configs_build():
    for config in PRESETS:
        testbed = Testbed(config)
        assert testbed.server.machine.spec.num_nodes == 2
        assert len(testbed.server.nic.pfs) == 2


def test_invalid_config_rejected():
    with pytest.raises(ValueError, match="'sideways'"):
        Testbed("sideways")
    # The client's single-PF NIC has no octoNIC arrangement.
    for client_config in ("weird", "ioctopus"):
        with pytest.raises(ValueError, match=repr(client_config)):
            Testbed("local", client_config=client_config)


def test_server_nic_is_bifurcated_across_sockets():
    testbed = Testbed("local")
    nodes = [pf.attach_node for pf in testbed.server.nic.pfs]
    assert nodes == [0, 1]
    assert all(pf.link.lanes == 8 for pf in testbed.server.nic.pfs)


def test_local_config_places_workload_on_nic_node():
    testbed = Testbed("local")
    assert testbed.server_workload_node == 0
    assert testbed.server_core(0).node_id == 0


def test_remote_config_places_workload_on_far_node():
    testbed = Testbed("remote")
    assert testbed.server_workload_node == 1
    assert testbed.server_core(0).node_id == 1


def test_ioctopus_uses_team_driver_with_far_placement():
    testbed = Testbed("ioctopus")
    assert isinstance(testbed.server.driver, OctoTeamDriver)
    # Same placement as `remote` — the point of the paper: placement no
    # longer matters.
    assert testbed.server_workload_node == 1


def test_standard_configs_use_pf0_netdev():
    for config in ("local", "remote"):
        testbed = Testbed(config)
        assert isinstance(testbed.server.driver, StandardDriver)
        assert testbed.server.driver.pf_id == 0


def test_client_is_single_pf_local():
    testbed = Testbed("remote")
    assert len(testbed.client.nic.pfs) == 1
    assert testbed.client.nic.pfs[0].attach_node == 0
    assert testbed.client_core(0).node_id == 0


def test_ddio_flag_disables_both_machines():
    testbed = Testbed(SystemConfig("local").without("ddio"))
    assert not testbed.server.machine.memory.ddio_enabled
    assert not testbed.client.machine.memory.ddio_enabled


def test_testbed_accepts_system_config():
    system = SystemConfig("remote").without("xps")
    testbed = Testbed(system)
    assert testbed.system == system
    assert testbed.config == "remote"
    assert not testbed.server.stack.xps_enabled


def test_machines_share_one_clock():
    testbed = Testbed("local")
    assert testbed.server.machine.env is testbed.client.machine.env
    testbed.run(1000)
    assert testbed.server.machine.now == 1000
    assert testbed.client.machine.now == 1000


# ------------------------------------------------------------- builder

def test_builder_single_host_octo_defaults():
    host = TestbedBuilder("ioctopus").build_host()
    assert len(host.nic.pfs) == 2
    assert isinstance(host.driver, OctoTeamDriver)
    assert host.wiring == "bifurcation"
    assert host.wiring_lanes == 16
    assert host.wiring_power_w == 0.0


def test_builder_switch_wiring_costs_lanes_and_power():
    host = (TestbedBuilder("ioctopus").wiring("switch")
            .pf_name("octo").build_host())
    assert host.wiring == "switch"
    assert host.wiring_lanes > 16
    assert host.wiring_power_w > 0.0
    assert len(host.nic.pfs) == 2


def test_builder_standard_single_pf_host():
    host = (TestbedBuilder("local").attach_nodes([0]).pf_name("s")
            .build_host())
    assert len(host.nic.pfs) == 1
    assert isinstance(host.driver, StandardDriver)


def test_builder_applies_components_to_single_host():
    host = (TestbedBuilder(SystemConfig("ioctopus").without("ddio"))
            .build_host())
    assert not host.machine.memory.ddio_enabled


def test_builder_validates_knobs():
    with pytest.raises(ValueError, match="wiring"):
        TestbedBuilder("ioctopus").wiring("string-and-cans")

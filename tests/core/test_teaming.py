"""Tests for the octoNIC team driver (IOctopus mode)."""

import pytest

from repro.core import Testbed
from repro.core.teaming import OctoTeamDriver
from repro.nic.device import NicDevice
from repro.nic.firmware import OctoFirmware, StandardFirmware
from repro.nic.packet import Flow
from repro.pcie.fabric import bifurcate
from repro.sim.errors import DeviceGoneError
from repro.topology import dell_r730


def test_team_driver_requires_octo_firmware():
    machine = dell_r730()
    pfs = bifurcate(machine, 16, [0, 1])
    device = NicDevice(machine, pfs, StandardFirmware(2))
    with pytest.raises(TypeError):
        OctoTeamDriver(machine, device)


def test_team_driver_requires_pf_on_every_node():
    machine = dell_r730()
    pfs = bifurcate(machine, 16, [0])
    device = NicDevice(machine, pfs, OctoFirmware(1))
    with pytest.raises(ValueError):
        OctoTeamDriver(machine, device)


def test_queues_bound_to_local_pf():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    machine = testbed.server.machine
    for core in machine.cores:
        rxq = driver.rx_queue_for_core(core)
        txq = driver.tx_queue_for_core(core)
        assert rxq.pf.attach_node == core.node_id
        assert txq.pf.attach_node == core.node_id


def test_single_netdev_single_mac():
    testbed = Testbed("ioctopus")
    assert testbed.server.driver.dst_mac() == OctoFirmware.MAC


def test_steer_rx_immediate_updates_both_tables():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    firmware = testbed.server.nic.firmware
    core = testbed.server.machine.cores_on_node(1)[2]
    flow = Flow.make(0)
    driver.steer_rx(flow, core, immediate=True)
    assert firmware.ioctorfs.target(flow) == 1
    assert firmware.arfs[1].target(flow).core is core


def test_steer_rx_migration_is_deferred_until_drained():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    firmware = testbed.server.nic.firmware
    env = testbed.env
    flow = Flow.make(0)
    old_core = testbed.server.machine.cores_on_node(0)[0]
    new_core = testbed.server.machine.cores_on_node(1)[0]
    driver.steer_rx(flow, old_core, immediate=True)
    # Simulate outstanding packets on the old queue.
    old_queue = driver.rx_queue_for_core(old_core)
    old_queue.outstanding = 100
    driver.steer_rx(flow, new_core)
    # Not yet applied.
    assert firmware.ioctorfs.target(flow) == 0
    env.run(until=env.now + 10_000_000)
    assert firmware.ioctorfs.target(flow) == 1


def test_steering_update_counter():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    before = driver.steering_updates
    driver.steer_rx(Flow.make(0), testbed.server_core(0), immediate=True)
    assert driver.steering_updates == before + 1


def test_expiry_worker_deletes_idle_rules():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    firmware = testbed.server.nic.firmware
    driver.steer_rx(Flow.make(0), testbed.server_core(0), immediate=True)
    assert len(firmware.ioctorfs) == 1
    driver.start_expiry_worker(period_ns=50_000_000, idle_ns=100_000_000)
    testbed.run(400_000_000)
    assert len(firmware.ioctorfs) == 0


def test_expiry_worker_cannot_start_twice():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    driver.start_expiry_worker()
    with pytest.raises(RuntimeError):
        driver.start_expiry_worker()


def test_allow_degraded_runs_missing_node_through_remote_pf():
    machine = dell_r730()
    pfs = bifurcate(machine, 16, [0])
    device = NicDevice(machine, pfs, OctoFirmware(1))
    driver = OctoTeamDriver(machine, device, allow_degraded=True)
    for core in machine.cores_on_node(1):
        assert driver.rx_queue_for_core(core).pf is device.pf(0)


def test_pf_failure_rebinds_queues_to_survivor():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    nic = testbed.server.nic
    nic.surprise_remove(1)
    for queue in driver.queues.rx + driver.queues.tx:
        assert queue.pf is nic.pf(0)
    assert nic.firmware._default_queues[1] == []
    assert len(nic.firmware._default_queues[0]) == len(driver.queues.rx)


def test_pf_failure_resteers_rules_after_drain():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    firmware = testbed.server.nic.firmware
    core = testbed.server.machine.cores_on_node(1)[0]
    flow = Flow.make(0)
    driver.steer_rx(flow, core, immediate=True)
    queue = driver.rx_queue_for_core(core)
    queue.outstanding = 500  # force a visible drain window
    testbed.server.nic.surprise_remove(1)
    # Deferred: the rule still sits in PF1's tables until the drain.
    assert firmware.arfs[1].target(flow) is not None
    assert firmware.ioctorfs.target(flow) == 1
    testbed.run(testbed.env.now + 10_000_000)
    assert firmware.arfs[1].target(flow) is None
    assert firmware.arfs[0].target(flow) is queue
    assert firmware.ioctorfs.target(flow) == 0
    assert driver.failovers == 1


def test_mpfs_hardware_failover_covers_drain_window():
    # Until the deferred rule move applies, steer_rx must already fall
    # back to the surviving PF: the dead PF cannot receive anything.
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    firmware = testbed.server.nic.firmware
    core = testbed.server.machine.cores_on_node(1)[0]
    driver.steer_rx(Flow.make(0), core, immediate=True)
    driver.rx_queue_for_core(core).outstanding = 500
    testbed.server.nic.surprise_remove(1)
    pf_id, _ = firmware.steer_rx(Flow.make(0), OctoFirmware.MAC)
    assert pf_id == 0


def test_pf_recovery_rehomes_queues_and_rules():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    nic = testbed.server.nic
    firmware = nic.firmware
    core = testbed.server.machine.cores_on_node(1)[0]
    flow = Flow.make(0)
    driver.steer_rx(flow, core, immediate=True)
    nic.surprise_remove(1)
    testbed.run(testbed.env.now + 10_000_000)  # failover settles
    nic.recover_pf(1)
    for queue in driver.queues.rx + driver.queues.tx:
        assert queue.pf.attach_node == queue.core.node_id
    testbed.run(testbed.env.now + 10_000_000)  # recovery re-steer settles
    assert firmware.arfs[0].target(flow) is None
    assert firmware.arfs[1].target(flow) is driver.rx_queue_for_core(core)
    assert firmware.ioctorfs.target(flow) == 1
    assert driver.failovers == 1
    assert driver.recoveries == 1


def test_losing_every_pf_downs_the_netdev_without_raising():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    nic = testbed.server.nic
    nic.surprise_remove(1)
    nic.surprise_remove(0)  # last PF: nothing left to fail over to
    testbed.run(testbed.env.now + 10_000_000)
    assert driver.failovers == 1  # the second failure had no fallback
    with pytest.raises(DeviceGoneError):
        nic.firmware.steer_rx(Flow.make(0), OctoFirmware.MAC)


def test_expiry_worker_counts_expired_rules():
    testbed = Testbed("ioctopus")
    driver = testbed.server.driver
    driver.steer_rx(Flow.make(0), testbed.server_core(0), immediate=True)
    driver.steer_rx(Flow.make(1), testbed.server_core(1), immediate=True)
    driver.start_expiry_worker(period_ns=50_000_000, idle_ns=100_000_000)
    testbed.run(400_000_000)
    assert driver.rules_expired == 2

"""Each component's enable/disable path threads through the real layer."""

import pytest

from repro.components import SystemConfig
from repro.core.configurations import Testbed
from repro.sim.errors import DeviceGoneError


def build(*names_off, preset="ioctopus"):
    return Testbed(SystemConfig(preset).without(*names_off))


def test_ddio_toggle_reaches_both_memory_systems():
    on, off = build(), build("ddio")
    assert on.server.machine.memory.ddio_enabled
    assert not off.server.machine.memory.ddio_enabled
    assert not off.client.machine.memory.ddio_enabled


def test_arfs_toggle_reaches_the_network_stacks():
    on, off = build(), build("arfs_migration")
    assert on.server.stack.arfs_enabled
    assert not off.server.stack.arfs_enabled
    assert not off.client.stack.arfs_enabled


def test_xps_toggle_reaches_the_network_stacks():
    off = build("xps")
    assert not off.server.stack.xps_enabled
    assert off.server.stack.arfs_enabled  # independent toggles


def test_fast_failover_toggle_reaches_the_firmware():
    on, off = build(), build("mpfs_fast_failover")
    assert on.server.nic.firmware.fast_failover
    assert not off.server.nic.firmware.fast_failover


def test_dead_pf_without_fast_failover_raises_device_gone():
    from repro.nic.packet import Flow
    off = build("mpfs_fast_failover")
    firmware = off.server.nic.firmware
    off.server.nic.surprise_remove(0)
    with pytest.raises(DeviceGoneError):
        firmware._resolve_pf(Flow.make(0), firmware.MAC, 0)


def test_dead_pf_with_fast_failover_steers_to_survivor():
    from repro.nic.packet import Flow
    on = build()
    firmware = on.server.nic.firmware
    on.server.nic.surprise_remove(0)
    assert firmware._resolve_pf(Flow.make(0), firmware.MAC, 0) == 1


def test_moderation_toggle_reaches_every_queue():
    on, off = build(), build("interrupt_moderation")

    def queues(testbed):
        qs = testbed.server.driver.queues
        return list(qs.rx) + list(qs.tx)

    assert all(q.moderation.enabled for q in queues(on))
    assert all(not q.moderation.enabled for q in queues(off))


def test_no_reorder_toggle_reaches_the_drivers():
    on, off = build(), build("no_reorder_resteer")
    assert on.server.driver.no_reorder_resteer
    assert not off.server.driver.no_reorder_resteer
    assert not off.client.driver.no_reorder_resteer


def test_toggles_reach_standard_preset_too():
    off = build("ddio", "xps", preset="remote")
    assert not off.server.machine.memory.ddio_enabled
    assert not off.server.stack.xps_enabled

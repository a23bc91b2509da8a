"""Tests for the standard and octo firmware personalities."""

import pytest

from repro.nic.firmware import OctoFirmware, StandardFirmware
from repro.nic.packet import Flow


def test_standard_firmware_macs_differ_per_pf():
    firmware = StandardFirmware(2)
    assert firmware.mac_for_pf(0) != firmware.mac_for_pf(1)


def test_standard_firmware_steers_by_mac(load_firmware):
    firmware = load_firmware(StandardFirmware(2))
    firmware.register_default_queues(0, ["q0"])
    firmware.register_default_queues(1, ["q1"])
    flow = Flow.make(0)
    assert firmware.steer_rx(flow, firmware.mac_for_pf(0)) == (0, "q0")
    assert firmware.steer_rx(flow, firmware.mac_for_pf(1)) == (1, "q1")


def test_standard_firmware_arfs_overrides_rss(load_firmware):
    firmware = load_firmware(StandardFirmware(1))
    firmware.register_default_queues(0, ["qa", "qb"])
    flow = Flow.make(0)
    firmware.arfs[0].update(flow, "qsteered", now=0)
    assert firmware.steer_rx(flow, firmware.mac_for_pf(0))[1] == "qsteered"


def test_standard_firmware_rss_fallback_is_stable(load_firmware):
    firmware = load_firmware(StandardFirmware(1))
    firmware.register_default_queues(0, ["qa", "qb", "qc"])
    flow = Flow.make(7)
    first = firmware.steer_rx(flow, firmware.mac_for_pf(0))
    assert first == firmware.steer_rx(flow, firmware.mac_for_pf(0))


def test_firmware_without_queues_raises(load_firmware):
    firmware = load_firmware(StandardFirmware(1))
    with pytest.raises(LookupError):
        firmware.steer_rx(Flow.make(0), firmware.mac_for_pf(0))


def test_firmware_needs_at_least_one_pf():
    with pytest.raises(ValueError):
        StandardFirmware(0)


def test_octo_firmware_single_mac():
    firmware = OctoFirmware(2)
    assert OctoFirmware.MAC == "0c:70:0c:70:0c:70"
    assert firmware.mac_for_pf(0) == firmware.mac_for_pf(1) == OctoFirmware.MAC


def test_octo_firmware_ioctorfs_steers_pf_then_arfs_queue(load_firmware):
    firmware = load_firmware(OctoFirmware(2))
    firmware.register_default_queues(0, ["q0-default"])
    firmware.register_default_queues(1, ["q1-default"])
    flow = Flow.make(0)
    # Unmapped: default PF 0 + RSS.
    assert firmware.steer_rx(flow, OctoFirmware.MAC) == (0, "q0-default")
    # Map the flow to PF 1 and a specific queue there.
    firmware.ioctorfs_update(flow, 1, now=0)
    firmware.arfs[1].update(flow, "q1-core5", now=0)
    assert firmware.steer_rx(flow, OctoFirmware.MAC) == (1, "q1-core5")


def test_octo_firmware_repoints_on_migration_update(load_firmware):
    firmware = load_firmware(OctoFirmware(2))
    firmware.register_default_queues(0, ["q0"])
    firmware.register_default_queues(1, ["q1"])
    flow = Flow.make(0)
    firmware.ioctorfs_update(flow, 0, now=0)
    firmware.ioctorfs_update(flow, 1, now=0)
    assert firmware.steer_rx(flow, OctoFirmware.MAC)[0] == 1


def test_octo_firmware_validates_pf_id():
    firmware = OctoFirmware(2)
    with pytest.raises(ValueError):
        firmware.ioctorfs_update(Flow.make(0), 5, now=0)


def test_octo_firmware_remove_and_expire(load_firmware):
    firmware = load_firmware(OctoFirmware(2))
    firmware.register_default_queues(0, ["q0"])
    flow = Flow.make(0)
    firmware.ioctorfs_update(flow, 1, now=0)
    assert firmware.ioctorfs.remove(flow)
    assert firmware.steer_rx(flow, OctoFirmware.MAC)[0] == 0
    firmware.ioctorfs_update(flow, 1, now=0)
    assert firmware.ioctorfs.expire_idle(now=10**10, idle_ns=1) == [flow]


def test_steering_refreshes_rule_recency(load_firmware):
    """Every steered batch refreshes the IOctoRFS rule and the chosen
    PF's ARFS rule, so idle expiry spares a flow that keeps arriving."""
    firmware = load_firmware(OctoFirmware(2))
    firmware.register_default_queues(0, ["q0"])
    firmware.register_default_queues(1, ["q1"])
    flow = Flow.make(0)
    firmware.ioctorfs_update(flow, 1, now=0)
    firmware.arfs[1].update(flow, "q1-core5", now=0)
    assert firmware.steer_rx(flow, OctoFirmware.MAC, now=0) == (1, "q1-core5")
    assert firmware.steer_rx(flow, OctoFirmware.MAC,
                             now=1000) == (1, "q1-core5")
    assert firmware.ioctorfs.expire_idle(now=1500, idle_ns=600) == []
    assert firmware.arfs[1].expire_idle(now=1500, idle_ns=600) == []
    assert firmware.ioctorfs.expire_idle(now=2000, idle_ns=600) == [flow]

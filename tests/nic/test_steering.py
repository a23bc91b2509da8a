"""Tests for RSS, the flow-rule table, and the MPFS's PF choice."""

import pytest

from repro.nic import steering
from repro.nic.firmware import OctoFirmware, StandardFirmware
from repro.nic.packet import Flow
from repro.nic.steering import RuleTable, rss_hash


# --------------------------------------------------------------- RSS

def test_rss_hash_in_range_and_stable():
    for i in range(50):
        flow = Flow.make(i)
        bucket = rss_hash(flow, 8)
        assert 0 <= bucket < 8
        assert bucket == rss_hash(flow, 8)


def test_rss_hash_spreads_flows():
    buckets = {rss_hash(Flow.make(i), 8) for i in range(100)}
    assert len(buckets) > 4  # not all in one bucket


def test_rss_hash_rejects_zero_buckets():
    with pytest.raises(ValueError):
        rss_hash(Flow.make(0), 0)


# -------------------------------------------------------------- ARFS

def test_arfs_lookup_after_update():
    table = RuleTable()
    flow = Flow.make(0)
    table.update(flow, "queue-3", now=10)
    assert table.lookup(flow, now=11) == "queue-3"


def test_arfs_lookup_missing_returns_none():
    assert RuleTable().lookup(Flow.make(0), now=0) is None


def test_arfs_update_repoints_existing_rule():
    table = RuleTable()
    flow = Flow.make(0)
    table.update(flow, "queue-1", now=0)
    table.update(flow, "queue-2", now=0)
    assert table.target(flow) == "queue-2"
    assert len(table) == 1


def test_arfs_remove():
    table = RuleTable()
    flow = Flow.make(0)
    table.update(flow, "q", now=0)
    assert table.remove(flow)
    assert not table.remove(flow)
    assert table.target(flow) is None


def test_arfs_expire_idle_rules():
    table = RuleTable()
    old, fresh = Flow.make(0), Flow.make(1)
    table.update(old, "q0", now=0)
    table.update(fresh, "q1", now=900)
    expired = table.expire_idle(now=1000, idle_ns=500)
    assert expired == [old]
    assert table.target(fresh) is not None


def test_arfs_lookup_refreshes_idle_clock():
    table = RuleTable()
    flow = Flow.make(0)
    table.update(flow, "q", now=0)
    table.lookup(flow, now=800)
    assert table.expire_idle(now=1000, idle_ns=500) == []


def test_rule_table_target_reads_without_refreshing():
    table = RuleTable()
    probed, hit = Flow.make(0), Flow.make(1)
    table.update(probed, "q0", now=0)
    table.update(hit, "q1", now=0)
    assert table.target(probed) == "q0"
    assert table.lookup(hit, now=800) == "q1"
    assert table.expire_idle(now=1000, idle_ns=500) == [probed]


def test_arfs_capacity_evicts_coldest(monkeypatch):
    monkeypatch.setattr(steering, "RULE_CAPACITY", 2)
    table = RuleTable()
    table.update(Flow.make(0), "q0", now=0)
    table.update(Flow.make(1), "q1", now=5)
    table.lookup(Flow.make(0), now=10)  # refresh 0: flow 1 is coldest
    table.update(Flow.make(2), "q2", now=20)
    assert table.target(Flow.make(1)) is None
    assert table.target(Flow.make(0)) == "q0"


# -------------------------------------------------------------- MPFS

def _pf(firmware, flow, dst_mac):
    """The PF the MPFS steers an arriving ``flow`` batch to."""
    return firmware.steer_rx(flow, dst_mac, now=0)[0]


def _with_queues(firmware):
    for pf_id in range(firmware.num_pfs):
        firmware.register_default_queues(pf_id, [f"q{pf_id}"])
    return firmware


def test_mpfs_mac_mode_steers_by_mac(load_firmware):
    firmware = _with_queues(load_firmware(StandardFirmware(2)))
    flow = Flow.make(0)
    assert _pf(firmware, flow, firmware.mac_for_pf(0)) == 0
    assert _pf(firmware, flow, firmware.mac_for_pf(1)) == 1


def test_mpfs_mac_mode_unknown_mac_default(load_firmware):
    firmware = _with_queues(load_firmware(StandardFirmware(2)))
    assert _pf(firmware, Flow.make(0), "cc:cc") == 0


def test_mpfs_flow_mode_steers_by_tuple(load_firmware):
    firmware = _with_queues(load_firmware(OctoFirmware(2)))
    flow = Flow.make(0)
    firmware.ioctorfs_update(flow, 1, now=0)
    # MAC is irrelevant in IOctoRFS mode.
    assert _pf(firmware, flow, "whatever") == 1


def test_mpfs_flow_mode_unmapped_flow_default(load_firmware):
    firmware = _with_queues(load_firmware(OctoFirmware(2)))
    assert _pf(firmware, Flow.make(9), "x") == 0


def test_mpfs_flow_rule_repoint_and_remove(load_firmware):
    firmware = _with_queues(load_firmware(OctoFirmware(2)))
    flow = Flow.make(0)
    firmware.ioctorfs_update(flow, 0, now=0)
    firmware.ioctorfs_update(flow, 1, now=0)
    assert _pf(firmware, flow, "x") == 1
    assert firmware.ioctorfs.remove(flow)
    assert _pf(firmware, flow, "x") == 0
    assert not firmware.ioctorfs.remove(flow)


def test_mpfs_flow_expiry():
    firmware = OctoFirmware(2)
    flow = Flow.make(0)
    firmware.ioctorfs_update(flow, 1, now=0)
    assert len(firmware.ioctorfs) == 1
    expired = firmware.ioctorfs.expire_idle(now=10_000, idle_ns=5000)
    assert expired == [flow]
    assert len(firmware.ioctorfs) == 0

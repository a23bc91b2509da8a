"""Tests for declarative fault plans."""

import pytest

from repro.faults import FaultPlan, FaultSpec


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FaultSpec("meteor_strike", at_ns=0)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        FaultSpec("pf_down", at_ns=-1, pf_id=0)


def test_zero_duration_rejected():
    with pytest.raises(ValueError):
        FaultSpec("pf_down", at_ns=0, duration_ns=0, pf_id=0)


def test_pf_faults_need_pf_id():
    for kind in ("pf_down", "pcie_link_down", "pcie_degrade"):
        with pytest.raises(ValueError):
            FaultSpec(kind, at_ns=0)


def test_degrade_needs_lanes():
    with pytest.raises(ValueError):
        FaultSpec("pcie_degrade", at_ns=0, pf_id=0)
    FaultSpec("pcie_degrade", at_ns=0, pf_id=0, lanes=4)


def test_wire_loss_needs_probability():
    with pytest.raises(ValueError):
        FaultSpec("wire_loss", at_ns=0)
    FaultSpec("wire_loss", at_ns=0, loss_probability=0.01)


def test_qpi_throttle_validation():
    with pytest.raises(ValueError):
        FaultSpec("qpi_throttle", at_ns=0, src_node=0, dst_node=1)
    with pytest.raises(ValueError):
        FaultSpec("qpi_throttle", at_ns=0, src_node=0, dst_node=1,
                  throttle_factor=1.5)
    FaultSpec("qpi_throttle", at_ns=0, src_node=0, dst_node=1,
              throttle_factor=0.5)


def test_transient_vs_permanent():
    permanent = FaultSpec("pf_down", at_ns=10, pf_id=0)
    transient = FaultSpec("pf_down", at_ns=10, duration_ns=5, pf_id=0)
    assert not permanent.is_transient and permanent.ends_at_ns is None
    assert transient.is_transient and transient.ends_at_ns == 15


def test_plan_orders_by_time():
    plan = FaultPlan()
    plan.add(FaultSpec("pf_down", at_ns=300, pf_id=0))
    plan.add(FaultSpec("pf_down", at_ns=100, pf_id=1))
    plan.add(FaultSpec("wire_loss", at_ns=200, loss_probability=0.1))
    assert [s.at_ns for s in plan.ordered()] == [100, 200, 300]
    assert len(plan) == 3


def test_plan_ties_keep_insertion_order():
    first = FaultSpec("pf_down", at_ns=50, pf_id=0)
    second = FaultSpec("pf_down", at_ns=50, pf_id=1)
    plan = FaultPlan().add(first).add(second)
    assert plan.ordered() == [first, second]

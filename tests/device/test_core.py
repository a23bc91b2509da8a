"""Unit tests for the generic octo-device core."""

import pytest

from repro.device import (
    CompletionPath,
    DmaQueuePair,
    DoorbellPath,
    MultiPfDevice,
)
from repro.pcie.fabric import bifurcate
from repro.topology import dell_skylake


@pytest.fixture
def machine():
    return dell_skylake()


def make_device(machine, nodes=(0, 1)):
    pfs = bifurcate(machine, 8 * len(nodes), list(nodes), name="dev")
    return MultiPfDevice(machine, pfs, name="dev")


def make_qp(machine, device, node=0):
    core = machine.cores_on_node(node)[0]
    return DmaQueuePair(0, core, machine, device.pf(0),
                       ring_name="ring0", ring_entries=64)


def test_device_requires_pfs(machine):
    with pytest.raises(ValueError):
        MultiPfDevice(machine, [])


def test_pf_queries(machine):
    dev = make_device(machine)
    assert dev.dual_port
    assert dev.pf_local_to(0).attach_node == 0
    assert dev.pf_local_to(1).attach_node == 1
    assert dev.pf(1) is dev.pfs[1]
    assert dev.pf_alive(0)
    for pf in dev.pfs:
        assert pf.device is dev


def test_surprise_remove_notifies_and_traces(machine):
    dev = make_device(machine)
    machine.tracer.enabled = True
    seen = []
    dev.add_pf_listener(
        on_failure=lambda pf: seen.append(("down", pf.pf_id)),
        on_recovery=lambda pf: seen.append(("up", pf.pf_id)))
    dev.surprise_remove(1, cause="test")
    assert not dev.pf_alive(1)
    assert dev.alive_pfs == [dev.pf(0)]
    dev.recover_pf(1)
    assert seen == [("down", 1), ("up", 1)]
    counts = machine.tracer.counts()
    assert counts["dev.pf_down"] == 1
    assert counts["dev.pf_up"] == 1


def test_remove_and_recover_validate_state(machine):
    dev = make_device(machine)
    dev.surprise_remove(0)
    with pytest.raises(ValueError):
        dev.surprise_remove(0)
    with pytest.raises(ValueError):
        dev.recover_pf(1)


def test_qp_validation_and_accounting(machine):
    dev = make_device(machine)
    with pytest.raises(ValueError):
        DmaQueuePair(0, machine.cores_on_node(0)[0], machine,
                     ring_name="bad", ring_entries=0)
    qp = make_qp(machine, dev)
    assert qp.node_id == 0
    assert qp.is_drained()
    qp.outstanding += 4
    assert not qp.is_drained()
    qp.account(4, 4096)
    assert qp.packets_total == 4
    assert qp.bytes_total == 4096
    assert qp.descriptors_until_wrap() == 60


def test_doorbell_scales_one_sample(machine):
    dev = make_device(machine)
    qp = make_qp(machine, dev)
    bell = DoorbellPath(machine)
    one = bell.ring(qp, 0)
    three = bell.ring(qp, 0, times=3)
    # Local route: constant half-RTT, so a scaled burst is exact.
    assert three == 3 * one
    assert bell.rings == 4
    with pytest.raises(ValueError):
        bell.ring(qp, 0, times=0)


def test_completion_path_counters(machine):
    dev = make_device(machine)
    qp = make_qp(machine, dev)
    completion = CompletionPath(machine, irq_ns=900)
    completion.consume(qp, 8, node=0)
    assert completion.entries == 8
    cost = completion.interrupt(qp, 64, 1, machine.now)
    assert cost % 900 == 0
    assert completion.interrupts >= 1

"""Tests for NIC queues and queue sets."""

import pytest

from repro.core.configurations import Testbed
from repro.nic.rings import RING_ENTRIES, QueueSet, RxQueue, TxQueue
from repro.pcie.fabric import bifurcate
from repro.topology import dell_r730
from repro.units import CACHELINE


def test_queue_regions_sized_and_placed():
    machine = dell_r730()
    core = machine.cores_on_node(1)[3]
    rxq = RxQueue(7, core, machine)
    assert rxq.ring.size == RING_ENTRIES * CACHELINE
    assert rxq.ring.home_node == 1
    assert rxq.buffers.home_node == 1
    txq = TxQueue(8, core, machine)
    assert txq.skbs.home_node == 1


def test_queue_accounting():
    machine = dell_r730()
    queue = RxQueue(0, machine.core(0), machine)
    queue.account(10, 15000)
    queue.account(5, 7500)
    assert queue.packets_total == 15
    assert queue.bytes_total == 22500


def test_queueset_binds_pf_per_core():
    machine = dell_r730()
    pf0, pf1 = bifurcate(machine, 16, [0, 1])
    queues = QueueSet(machine, machine.cores,
                      pf_for_core=lambda c: pf0 if c.node_id == 0 else pf1)
    assert len(queues.rx) == len(machine.cores)
    for queue in queues.rx + queues.tx:
        expected = pf0 if queue.core.node_id == 0 else pf1
        assert queue.pf is expected


def test_queueset_lookup_by_core():
    machine = dell_r730()
    queues = QueueSet(machine, machine.cores[:4])
    core = machine.core(2)
    assert queues.rx_by_core[core].core is core
    assert queues.tx_by_core[core].core is core
    assert machine.core(20) not in queues.rx_by_core
    assert machine.core(20) not in queues.tx_by_core


def test_fresh_queue_has_enabled_moderation():
    machine = dell_r730()
    queue = RxQueue(0, machine.core(0), machine)
    assert queue.moderation.enabled
    assert queue.is_drained()


@pytest.mark.parametrize("config", ["local", "remote", "ioctopus"])
def test_queue_lookup_matches_scan_on_every_testbed_core(config):
    """The core -> queue maps return what a scan of the queue lists in
    order returns, for every core of the server; a core the set does not
    serve is in neither map, and the driver raises LookupError."""
    testbed = Testbed(config)
    driver = testbed.server.driver
    queues = driver.queues
    for core in testbed.server.machine.cores:
        for found, listed in ((queues.rx_by_core.get(core), queues.rx),
                              (queues.tx_by_core.get(core), queues.tx)):
            assert found is next(
                (queue for queue in listed if queue.core is core), None)
    stranger = testbed.client.machine.core(0)
    assert stranger not in queues.rx_by_core
    assert stranger not in queues.tx_by_core
    with pytest.raises(LookupError):
        driver.rx_queue_for_core(stranger)
    with pytest.raises(LookupError):
        driver.tx_queue_for_core(stranger)

"""Tests for the NIC device: delivery, transmit, per-PF accounting."""

from functools import partial

import pytest

from repro.experiments.runners import sample_gbps
from repro.nic.device import NicDevice
from repro.nic.firmware import OctoFirmware, StandardFirmware
from repro.nic.packet import Flow
from repro.nic.rings import RxQueue, TxQueue
from repro.nic.wire import EthernetWire
from repro.pcie.fabric import bifurcate
from repro.topology import dell_r730


@pytest.fixture
def machine():
    return dell_r730()


def make_octonic(machine, wire=None):
    pfs = bifurcate(machine, 16, [0, 1], name="octo")
    device = NicDevice(machine, pfs, OctoFirmware(2), wire=wire,
                       wire_side="b", name="octoNIC")
    return device


def test_device_requires_matching_pf_count(machine):
    pfs = bifurcate(machine, 16, [0, 1])
    with pytest.raises(ValueError):
        NicDevice(machine, pfs, StandardFirmware(1))
    with pytest.raises(ValueError):
        NicDevice(machine, [], StandardFirmware(1))


def test_device_validates_wire_side(machine):
    pfs = bifurcate(machine, 16, [0])
    with pytest.raises(ValueError):
        NicDevice(machine, pfs, StandardFirmware(1), wire_side="c")


def test_mac_for_pf_octo_vs_standard(machine):
    octo = make_octonic(machine)
    assert octo.mac_for_pf(0) == octo.mac_for_pf(1) == OctoFirmware.MAC
    pfs = bifurcate(machine, 16, [0, 1], name="std")
    std = NicDevice(machine, pfs, StandardFirmware(2))
    assert std.mac_for_pf(0) != std.mac_for_pf(1)


def test_pf_local_to(machine):
    device = make_octonic(machine)
    assert device.pf_local_to(0).attach_node == 0
    assert device.pf_local_to(1).attach_node == 1


def test_rx_deliver_steers_and_accounts(machine):
    device = make_octonic(machine)
    core0 = machine.cores_on_node(0)[0]
    queue = RxQueue(0, core0, machine, pf=device.pf(0))
    device.firmware.register_default_queues(0, [queue])
    device.firmware.register_default_queues(1, [])
    flow = Flow.make(0)
    delivered, delay = device.rx_deliver(flow, OctoFirmware.MAC, 10, 1500)
    assert delivered is queue
    assert delay > 0
    assert queue.outstanding == 10
    assert queue.packets_total == 10
    assert device.pf_rx_bytes(0) == 15000
    assert device.pf_rx_bytes(1) == 0


def test_rx_deliver_validates_packets(machine):
    device = make_octonic(machine)
    device.firmware.register_default_queues(0, ["q"])
    with pytest.raises(ValueError):
        device.rx_deliver(Flow.make(0), OctoFirmware.MAC, 0, 1500)


def test_rx_deliver_wire_charged_once(machine):
    wire = EthernetWire(machine.env)
    device = make_octonic(machine, wire=wire)
    core0 = machine.cores_on_node(0)[0]
    queue = RxQueue(0, core0, machine, pf=device.pf(0))
    device.firmware.register_default_queues(0, [queue])
    device.rx_deliver(Flow.make(0), OctoFirmware.MAC, 4, 1500)
    assert wire.a_to_b.bytes_total > 0
    before = wire.a_to_b.bytes_total
    device.rx_deliver(Flow.make(0), OctoFirmware.MAC, 4, 1500,
                      charge_wire=False)
    assert wire.a_to_b.bytes_total == before


def test_tx_requires_bound_pf(machine):
    device = make_octonic(machine)
    core0 = machine.cores_on_node(0)[0]
    queue = TxQueue(0, core0, machine, pf=None)
    with pytest.raises(ValueError):
        device.tx(queue, queue.skbs, 1, 1500)


def test_tx_accounts_per_pf(machine):
    device = make_octonic(machine)
    core1 = machine.cores_on_node(1)[0]
    queue = TxQueue(0, core1, machine, pf=device.pf(1))
    delay = device.tx(queue, queue.skbs, 8, 1500)
    assert delay > 0
    assert device.pf_tx_bytes(1) == 8 * 1500
    assert device.pf_tx_bytes(0) == 0


def test_tx_local_completion_is_ddio_fresh(machine):
    device = make_octonic(machine)
    core0 = machine.cores_on_node(0)[0]
    queue = TxQueue(0, core0, machine, pf=device.pf(0))
    device.tx(queue, queue.skbs, 1, 1500)
    assert machine.memory.read_fresh_dma_line(0, queue.ring) == 0


def test_tx_remote_completion_misses(machine):
    device = make_octonic(machine)
    core1 = machine.cores_on_node(1)[0]
    # Queue served by the PF on the other socket (the `remote` config).
    queue = TxQueue(0, core1, machine, pf=device.pf(0))
    device.tx(queue, queue.skbs, 1, 1500)
    latency = machine.memory.read_fresh_dma_line(1, queue.ring)
    assert 60 <= latency <= 150


def test_pf_window_throughput(machine):
    """Per-PF receive throughput over a window, from the cumulative
    ``pf_rx_bytes`` counters: only bytes received in the window count."""
    device = make_octonic(machine)
    core0 = machine.cores_on_node(0)[0]
    queue = RxQueue(0, core0, machine, pf=device.pf(0))
    device.firmware.register_default_queues(0, [queue])
    device.rx_deliver(Flow.make(0), OctoFirmware.MAC, 10, 1250)
    env = machine.env
    series = sample_gbps(env, {
        f"pf{pf_id}": [partial(device.pf_rx_bytes, pf_id)]
        for pf_id in (0, 1)}, 100_000, 100_000)

    def deliver():
        yield 40_000
        device.rx_deliver(Flow.make(0), OctoFirmware.MAC, 100, 1250)

    env.process(deliver())
    env.run()
    # 125000 B in 100 us => 10 Gb/s
    assert series["pf0"].times_ns == [100_000]
    assert series["pf0"].values == [pytest.approx(10.0, rel=0.01)]
    assert series["pf1"].values == [0.0]


def test_rx_deliver_validates_payload_bytes(machine):
    device = make_octonic(machine)
    device.firmware.register_default_queues(0, ["q"])
    with pytest.raises(ValueError):
        device.rx_deliver(Flow.make(0), OctoFirmware.MAC, 1, 0)
    with pytest.raises(ValueError):
        device.rx_deliver(Flow.make(0), OctoFirmware.MAC, 1, -100)


def test_tx_validates_payload_bytes(machine):
    device = make_octonic(machine)
    core0 = machine.cores_on_node(0)[0]
    queue = TxQueue(0, core0, machine, pf=device.pf(0))
    with pytest.raises(ValueError):
        device.tx(queue, queue.skbs, 1, 0)


def test_surprise_remove_and_recover(machine):
    device = make_octonic(machine)
    assert [pf.pf_id for pf in device.alive_pfs] == [0, 1]
    device.surprise_remove(1)
    assert not device.pf_alive(1)
    assert [pf.pf_id for pf in device.alive_pfs] == [0]
    assert not device.firmware.pf_alive(1)
    device.recover_pf(1)
    assert device.pf_alive(1)
    assert device.firmware.pf_alive(1)


def test_surprise_remove_twice_rejected(machine):
    device = make_octonic(machine)
    device.surprise_remove(0)
    with pytest.raises(ValueError):
        device.surprise_remove(0)
    with pytest.raises(ValueError):
        device.recover_pf(1)  # PF1 was never removed


def test_pf_listeners_fire_in_order(machine):
    device = make_octonic(machine)
    calls = []
    device.add_pf_listener(
        on_failure=lambda pf: calls.append(("down", pf.pf_id)),
        on_recovery=lambda pf: calls.append(("up", pf.pf_id)))
    device.surprise_remove(1)
    device.recover_pf(1)
    assert calls == [("down", 1), ("up", 1)]

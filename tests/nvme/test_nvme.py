"""Tests for the NVMe controller and driver."""

import pytest

from repro.nvme import (
    DEFAULT_QP_DATA_BYTES,
    NvmeController,
    NvmeDriver,
    NvmeQueuePair,
)
from repro.pcie.fabric import bifurcate
from repro.sim.errors import DeviceGoneError
from repro.topology import dell_skylake
from repro.units import CACHELINE


@pytest.fixture
def machine():
    return dell_skylake()


def single_port(machine, name="ssd"):
    return NvmeController(machine, bifurcate(machine, 8, [0], name=name),
                          name=name)


def dual_port(machine, name="octossd"):
    return NvmeController(machine, bifurcate(machine, 16, [0, 1],
                                             name=name), name=name)


def test_controller_needs_a_pf(machine):
    with pytest.raises(ValueError):
        NvmeController(machine, [])


def test_dual_port_detection(machine):
    assert not single_port(machine).dual_port
    assert dual_port(machine).dual_port


def test_read_charges_flash_and_memory(machine):
    ssd = single_port(machine)
    core = machine.cores_on_node(0)[0]
    qp = NvmeQueuePair(0, core, machine)
    delay = ssd.read(qp, 128 * 1024)
    assert delay > 0
    assert ssd.flash.bytes_total == 128 * 1024
    assert ssd.read_bytes == 128 * 1024


def test_read_validates_size(machine):
    ssd = single_port(machine)
    qp = NvmeQueuePair(0, machine.cores_on_node(0)[0], machine)
    with pytest.raises(ValueError):
        ssd.read(qp, 0)
    with pytest.raises(ValueError):
        ssd.write(qp, -1)


def test_local_read_completion_is_fresh(machine):
    ssd = single_port(machine)
    core = machine.cores_on_node(0)[0]
    driver = NvmeDriver(machine, ssd)
    cpu, dev = driver.submit_read(core, 128 * 1024)
    # Local port + DDIO: completion read costs nothing beyond the base.
    qp = driver.qp_for_core(core)
    assert machine.memory.read_fresh_dma_line(0, qp.ring) == 0


def test_remote_read_crosses_interconnect(machine):
    ssd = single_port(machine)  # attached to node 0
    core = machine.cores_on_node(1)[0]
    driver = NvmeDriver(machine, ssd)
    link = machine.interconnect.link(0, 1)
    driver.submit_read(core, 128 * 1024)
    assert link.bytes_total >= 128 * 1024


def test_octo_mode_requires_dual_port(machine):
    with pytest.raises(ValueError):
        NvmeDriver(machine, single_port(machine), octo_mode=True)


def test_octo_mode_homes_qps_on_local_port(machine):
    ssd = dual_port(machine)
    octo = NvmeDriver(machine, ssd, octo_mode=True)
    assert octo.qp_for_core(
        machine.cores_on_node(0)[0]).pf.attach_node == 0
    assert octo.qp_for_core(
        machine.cores_on_node(1)[0]).pf.attach_node == 1
    # Standard mode always homes on port 0.
    std = NvmeDriver(machine, dual_port(machine, name="std"))
    assert std.qp_for_core(
        machine.cores_on_node(1)[0]).pf.attach_node == 0


def test_octossd_avoids_interconnect_for_far_node(machine):
    ssd = dual_port(machine)
    driver = NvmeDriver(machine, ssd, octo_mode=True)
    core = machine.cores_on_node(1)[0]
    driver.submit_read(core, 128 * 1024)
    for link in machine.interconnect.links():
        assert link.bytes_total == 0


def test_driver_reuses_queue_pairs(machine):
    ssd = single_port(machine)
    driver = NvmeDriver(machine, ssd)
    core = machine.cores_on_node(0)[0]
    assert driver.qp_for_core(core) is driver.qp_for_core(core)
    other = machine.cores_on_node(0)[1]
    assert driver.qp_for_core(core) is not driver.qp_for_core(other)


def test_write_path(machine):
    ssd = single_port(machine)
    driver = NvmeDriver(machine, ssd)
    core = machine.cores_on_node(0)[0]
    cpu, dev = driver.submit_write(core, 64 * 1024)
    assert cpu > 0 and dev > 0
    assert ssd.write_bytes == 64 * 1024


def test_qp_data_region_size_is_configurable(machine):
    core = machine.cores_on_node(0)[0]
    assert NvmeQueuePair(0, core, machine).data.size == \
        DEFAULT_QP_DATA_BYTES
    assert NvmeQueuePair(1, core, machine,
                         data_bytes=256 * 1024).data.size == 256 * 1024
    with pytest.raises(ValueError):
        NvmeQueuePair(2, core, machine, data_bytes=CACHELINE - 1)


def test_driver_threads_qp_data_bytes_through(machine):
    driver = NvmeDriver(machine, single_port(machine),
                        qp_data_bytes=512 * 1024)
    qp = driver.qp_for_core(machine.cores_on_node(0)[0])
    assert qp.data.size == 512 * 1024


def test_batched_submission_accounting(machine):
    ssd = single_port(machine)
    driver = NvmeDriver(machine, ssd)
    core = machine.cores_on_node(0)[0]
    driver.submit_read(core, 128 * 1024, ncmds=32)
    qp = driver.qp_for_core(core)
    assert ssd.read_bytes == 32 * 128 * 1024
    assert qp.packets_total == 32
    assert qp.outstanding == 0  # the batch completed synchronously
    assert driver.doorbell.rings == 1  # one doorbell for the whole batch
    assert driver.completion.entries == 32  # one CQ entry per command


def test_submit_validates_args(machine):
    driver = NvmeDriver(machine, single_port(machine))
    core = machine.cores_on_node(0)[0]
    with pytest.raises(ValueError):
        driver.submit_read(core, 128 * 1024, ncmds=0)
    with pytest.raises(ValueError):
        driver._submit(core, 128 * 1024, "trim")


def test_standard_mode_dies_with_port0(machine):
    ssd = single_port(machine)
    driver = NvmeDriver(machine, ssd)
    core = machine.cores_on_node(0)[0]
    driver.submit_read(core, 128 * 1024)
    ssd.surprise_remove(0)
    with pytest.raises(DeviceGoneError):
        driver.submit_read(core, 128 * 1024)
    assert driver.failovers == 0  # no team: nothing to fail over to


def test_octossd_fails_over_and_recovers(machine):
    ssd = dual_port(machine)
    driver = NvmeDriver(machine, ssd, octo_mode=True)
    core = machine.cores_on_node(1)[0]
    qp = driver.qp_for_core(core)
    assert qp.pf.attach_node == 1

    ssd.surprise_remove(1)
    # Re-homing is immediate; submissions keep working through port 0.
    assert qp.pf.attach_node == 0
    driver.submit_read(core, 128 * 1024)
    assert ssd.pf_read_bytes(0) == 128 * 1024
    machine.env.run(until=machine.env.now + 10_000_000)
    assert driver.failovers == 1  # deferred until the drain elapsed

    ssd.recover_pf(1)
    assert qp.pf.attach_node == 1
    machine.env.run(until=machine.env.now + 10_000_000)
    assert driver.recoveries == 1


def test_octo_never_slower_than_standard_for_remote_cores():
    """Property: for a remote-socket submitter the octoSSD path costs no
    more than the standard single-home path at every swept size — the
    octopus removes the interconnect crossing, it never adds one."""
    KB = 1024
    for nbytes in (4 * KB, 16 * KB, 64 * KB, 128 * KB, 512 * KB,
                   1024 * KB):
        results = {}
        for mode in (False, True):
            machine = dell_skylake()
            driver = NvmeDriver(machine, dual_port(machine),
                                octo_mode=mode)
            results[mode] = driver.submit_read(
                machine.cores_on_node(1)[0], nbytes, ncmds=8)
        octo_cpu, octo_dev = results[True]
        std_cpu, std_dev = results[False]
        assert octo_cpu <= std_cpu, f"cpu regressed at {nbytes}"
        assert octo_dev <= std_dev, f"dev regressed at {nbytes}"

"""Fixtures shared by the NIC tests."""

import pytest

from repro.nic.device import NicDevice
from repro.pcie.fabric import bifurcate
from repro.topology import dell_r730


@pytest.fixture
def load_firmware():
    """``load_firmware(firmware)``: load a standalone firmware on a NIC
    with one live PF per firmware PF (one per node), as a testbed does,
    and return it.  Steering reads PF liveness from those PFs."""
    def load(firmware):
        machine = dell_r730()
        pfs = bifurcate(machine, 16, list(range(firmware.num_pfs)))
        NicDevice(machine, pfs, firmware)
        return firmware
    return load

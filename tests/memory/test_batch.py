"""Golden tests: the vectorised DDIO batch kernel is bit-for-bit
identical to the scalar per-burst expression it replaces, with and
without numpy, and the fluid burst trains that run it charge per-burst
scalar service durations either way."""

import pytest

import repro.memory.batch as batch
from repro.memory.batch import _VECTOR_MIN, ddio_split
from repro.pcie import bifurcate
from repro.topology import dell_r730

# Enough elements to take the numpy path, with awkward sizes (odd bytes,
# zero, sizes straddling the capacities below, round-half-even
# candidates) mixed in.
SIZES = [0, 1, 63, 64, 65, 256, 1500, 4096, 65536, 1048577, 7, 333]
RATES = [1e9, 2.5e9, 39.0625e9 / 3, 985.0]


@pytest.fixture(params=[True, False], ids=["numpy", "scalar"])
def numpy_mode(request, monkeypatch):
    if not request.param:
        monkeypatch.setattr(batch, "_np", None)
    elif batch._np is None:
        pytest.skip("numpy unavailable")
    return request.param


@pytest.mark.parametrize("rate", RATES)
def test_service_durations_match_scalar_expression(numpy_mode, rate):
    # A local fluid burst train: the PF charges the PCIe link per burst
    # (account_batch) and the LLC splits the bursts with ddio_split,
    # which takes the numpy path here unless numpy is hidden.
    machine = dell_r730()
    (pf,) = bifurcate(machine, 16, [0])
    link = pf.link.upstream
    link.set_rate(rate)
    ring = machine.alloc_region("ring", 0, 1 << 22)
    nbursts = len(SIZES)
    assert nbursts >= _VECTOR_MIN
    for n in SIZES:
        backlog = link.queueing_delay()
        busy = link.busy_ns
        delay = pf.dma_write(ring, n * nbursts, nbursts=nbursts)
        charged = nbursts * int(round(n * 1e9 / rate))
        assert type(delay) is int
        assert link.busy_ns - busy == charged
        assert delay >= backlog + charged


@pytest.mark.parametrize("capacity", [0, 64, 4096, 1 << 30])
def test_ddio_split_matches_scalar_expression(numpy_mode, capacity):
    absorbed, spills = ddio_split(SIZES, capacity)
    assert absorbed == [min(n, capacity) for n in SIZES]
    assert spills == [n - min(n, capacity) for n in SIZES]
    # Conservation: every byte is either absorbed or spilled.
    assert [a + s for a, s in zip(absorbed, spills)] == SIZES


def test_empty_batches(numpy_mode):
    assert ddio_split([], 4096) == ([], [])

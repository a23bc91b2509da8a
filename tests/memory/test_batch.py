"""Golden tests for the DDIO split of an adaptive burst train.

``LastLevelCache.ddio_write(region, nbytes, nbursts)`` absorbs a train
of equal bursts (the last one takes the division remainder) in closed
form.  It must equal a per-burst ``ddio_write`` loop, and the trains that
run it must charge per-burst scalar service durations.  None of it may
depend on numpy: these tests run with numpy loaded in the process
(``numpy``) and with its import blocked (``scalar``), and a fresh
interpreter importing the simulator must not load it at all.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.memory.llc import LastLevelCache
from repro.memory.region import Region
from repro.pcie import bifurcate
from repro.topology import dell_r730

# Awkward sizes: odd bytes, zero, sizes straddling the capacities below,
# round-half-even candidates.
SIZES = [0, 1, 63, 64, 65, 256, 1500, 4096, 65536, 1048577, 7, 333]
RATES = [1e9, 2.5e9, 39.0625e9 / 3, 985.0]
NBURSTS = [1, 2, 3, 7, len(SIZES)]


@pytest.fixture(params=["numpy", "scalar"])
def numpy_mode(request, monkeypatch):
    """``numpy``: numpy is loaded in the process.  ``scalar``: importing
    it raises ImportError.  The DMA path must not care either way."""
    if request.param == "scalar":
        monkeypatch.setitem(sys.modules, "numpy", None)
    else:
        pytest.importorskip("numpy")
    return request.param


def _llc(ddio_capacity):
    """An LLC whose DDIO slice holds ``ddio_capacity`` bytes."""
    if ddio_capacity == 0:
        return LastLevelCache(0, capacity=1, ddio_fraction=0.5)
    return LastLevelCache(0, capacity=ddio_capacity, ddio_fraction=1.0)


def _bursts(nbytes, nbursts):
    per_burst = nbytes // nbursts
    return [per_burst] * (nbursts - 1) + [nbytes - per_burst * (nbursts - 1)]


def _state(llc):
    return ([(r.name, e.resident, e.ddio) for r, e in llc._entries.items()],
            llc.occupied, llc.ddio_occupied)


@pytest.mark.parametrize("rate", RATES)
def test_service_durations_match_scalar_expression(numpy_mode, rate):
    # A local adaptive burst train: the PF charges the PCIe link per burst
    # (account_batch) and the LLC absorbs the bursts in closed form.
    machine = dell_r730()
    (pf,) = bifurcate(machine, 16, [0])
    link = pf.link.upstream
    link.set_rate(rate)
    ring = machine.alloc_region("ring", 0, 1 << 22)
    nbursts = len(SIZES)
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
    for n in SIZES:
        for nbursts in NBURSTS:
            nbytes = n * nbursts + nbursts // 2   # a remainder burst too
            sizes = _bursts(nbytes, nbursts)
            closed_llc, loop_llc = _llc(capacity), _llc(capacity)
            closed_region = Region("ring", 0, 1 << 22)
            loop_region = Region("ring", 0, 1 << 22)
            absorbed = closed_llc.ddio_write(closed_region, nbytes, nbursts)
            assert absorbed == sum(min(s, capacity) for s in sizes)
            assert absorbed == sum(loop_llc.ddio_write(loop_region, s)
                                   for s in sizes)
            assert _state(closed_llc) == _state(loop_llc)


def test_empty_batches(numpy_mode):
    llc = _llc(4096)
    region = Region("ring", 0, 1 << 22)
    for nbursts in NBURSTS:
        assert llc.ddio_write(region, 0, nbursts) == 0
    assert (llc.occupied, llc.ddio_occupied) == (0, 0)


def test_simulator_never_imports_numpy():
    """A fresh interpreter importing what every simulator process imports
    (the benchmark child's set-up) must not load numpy."""
    script = ("import sys\n"
              "import repro.experiments, repro.analysis.claims\n"
              "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

"""End-to-end octoSSD PF failover: fio degrades to the single-port
(remote-DMA) plateau during the outage and recovers afterwards."""

import pytest

from repro.experiments.fig15_nvme import FIO_THREADS, build_nvme_host
from repro.experiments.fig_failover import SSD_STREAMS, run_ssd_failover
from repro.workloads.fio import spawn_fio_fleet
from repro.workloads.stream_bench import StreamThread

DURATION_NS = 300_000_000
FAIL_AT_NS = 100_000_000
RECOVER_AT_NS = 200_000_000
SAMPLE_NS = 25_000_000


@pytest.fixture(scope="module")
def ssd_run():
    return run_ssd_failover(DURATION_NS, FAIL_AT_NS, RECOVER_AT_NS,
                            sample_ns=SAMPLE_NS)


def single_port_remote_gbps():
    """fio throughput when every drive has only its socket-0 port, under
    the same UPI congestion — the level failover should degrade to."""
    host, drivers = build_nvme_host(octo_mode=False)
    machine = host.machine
    fio_cores = machine.cores_on_node(1)[:FIO_THREADS]
    fleet = spawn_fio_fleet(host, fio_cores, drivers, DURATION_NS)
    for i in range(SSD_STREAMS):
        StreamThread(host, machine.cores_on_node(0)[i], target_node=1,
                     kind="write", duration_ns=DURATION_NS)
    machine.env.run(until=DURATION_NS + SAMPLE_NS)
    return sum(f.throughput_gbps() for f in fleet)


def test_fleet_survives_the_outage(ssd_run):
    assert all(not f.errors for f in ssd_run.fleet)
    assert all(f.throughput_gbps() > 0 for f in ssd_run.fleet)
    assert [d.failovers for d in ssd_run.drivers] == [1] * 4
    assert [d.recoveries for d in ssd_run.drivers] == [1] * 4


def test_traffic_hands_off_between_ports(ssd_run):
    pf0, pf1 = ssd_run.series["pf0"], ssd_run.series["pf1"]
    # Before the fault remote fio is served by its local port 1.
    assert pf1.mean(SAMPLE_NS, FAIL_AT_NS) > 100.0
    assert pf0.mean(SAMPLE_NS, FAIL_AT_NS) == pytest.approx(0.0)
    # During the outage port 0 carries everything.
    assert pf0.mean(FAIL_AT_NS + SAMPLE_NS, RECOVER_AT_NS) > 100.0
    assert pf1.mean(FAIL_AT_NS + SAMPLE_NS,
                    RECOVER_AT_NS) == pytest.approx(0.0)
    # After recovery traffic returns to port 1.
    assert pf1.mean(RECOVER_AT_NS + SAMPLE_NS) > 100.0


def test_degraded_plateau_matches_single_port_remote(ssd_run):
    degraded = ssd_run.series["pf0"].mean(FAIL_AT_NS + SAMPLE_NS,
                                          RECOVER_AT_NS)
    remote = single_port_remote_gbps()
    # Losing the local port costs exactly the locality advantage: the
    # fallback is nonuniform DMA across the congested UPI, not a dead
    # blockdev.
    assert degraded == pytest.approx(remote, rel=0.05)


def test_recovery_restores_prefault_plateau(ssd_run):
    pre = ssd_run.series["pf1"].mean(SAMPLE_NS, FAIL_AT_NS)
    post = ssd_run.series["pf1"].mean(RECOVER_AT_NS + SAMPLE_NS)
    assert post == pytest.approx(pre, rel=0.05)
    # ...and the degraded plateau really was below it.
    degraded = ssd_run.series["pf0"].mean(FAIL_AT_NS + SAMPLE_NS,
                                          RECOVER_AT_NS)
    assert degraded < 0.9 * pre


def test_trace_has_fault_and_team_markers(ssd_run):
    joined = "\n".join(ssd_run.trace)
    assert "fault.pf_down" in joined
    assert "recover.pf_down" in joined
    assert "failover.begin" in joined
    assert "failover.applied" in joined
    assert "recovery.applied" in joined
    assert "nvme-driver" in joined


def test_same_seed_runs_are_byte_identical():
    a = run_ssd_failover(100_000_000, 30_000_000, 60_000_000,
                         sample_ns=SAMPLE_NS)
    b = run_ssd_failover(100_000_000, 30_000_000, 60_000_000,
                         sample_ns=SAMPLE_NS)
    assert a.trace == b.trace
    assert a.trace
    assert a.series["pf0"].values == b.series["pf0"].values
    assert a.series["pf1"].values == b.series["pf1"].values

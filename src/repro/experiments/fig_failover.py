"""PF failover (robustness extension, Fig-14-style presentation).

A TCP Rx netperf process runs on socket 1 of the `ioctopus`
configuration, so the octoNIC serves it through PF1.  Mid-run PF1 is
surprise-removed; the team driver fails the socket's queues over to PF0
and the flow degrades to nonuniform-DMA (`remote`-level) throughput
instead of dying.  When PF1 comes back the driver re-homes the queues
and full-speed local DMA resumes.  Per-PF throughput is sampled every
50 ms, exactly like Figure 14's steering-switch plot.

The octoSSD variant (``failover_ssd``) runs the same scenario against
the storage personality of the octo-device core: dual-port NVMe drives
serve remote-socket fio while STREAM antagonists congest the UPI (the
Fig 15 setup); losing the fio socket's port re-homes every queue pair
onto the other port, so throughput degrades to the single-port
(remote-DMA) plateau instead of dropping to zero, and recovers when the
port returns.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.core.configurations import Testbed
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.fig15_nvme import FIO_THREADS, build_nvme_host
from repro.experiments.runners import sample_gbps
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.collect import TimeSeries
from repro.nic.packet import Flow
from repro.units import KB
from repro.workloads.fio import spawn_fio_fleet
from repro.workloads.netperf import TcpStream
from repro.workloads.stream_bench import StreamThread

SAMPLE_NS = 50_000_000  # 50 ms, as in Fig 14
#: The PF the fault removes: PF1, local to the workload's socket.
FAILED_PF = 1
#: STREAM antagonists congesting the UPI during the octoSSD scenario
#: (without congestion, flash is the bottleneck and remote DMA is free).
SSD_STREAMS = 6


def _outage_plan(fail_at_ns: Optional[int],
                recover_at_ns: Optional[int]) -> FaultPlan:
    """PF1's outage window: no fault without ``fail_at_ns``, a
    permanent one without ``recover_at_ns``."""
    plan = FaultPlan()
    if fail_at_ns is not None:
        duration = (None if recover_at_ns is None
                    else recover_at_ns - fail_at_ns)
        plan.add(FaultSpec("pf_down", fail_at_ns, duration,
                           pf_id=FAILED_PF))
    return plan


class FailoverRun:
    """Everything one faulted run produces."""

    def __init__(self, series: Dict[str, TimeSeries],
                 injector: FaultInjector, workload: TcpStream,
                 trace: List[str], team):
        self.series = series
        self.injector = injector
        self.workload = workload
        self.trace = trace
        self.team = team


def run_failover(duration_ns: int, fail_at_ns: Optional[int] = None,
                 recover_at_ns: Optional[int] = None,
                 seed: int = 0) -> FailoverRun:
    """One `ioctopus` run with an optional PF1 outage window."""
    testbed = Testbed("ioctopus", seed=seed)
    host = testbed.server
    host.machine.tracer.enabled = True
    core = host.machine.cores_on_node(1)[0]
    workload = TcpStream(host, core, Flow.make(0), 64 * KB, "rx",
                         duration_ns)

    plan = _outage_plan(fail_at_ns, recover_at_ns)
    injector = FaultInjector(testbed.env, plan, device=host.nic,
                             wire=testbed.wire, machine=host.machine,
                             rng=host.machine.rng)
    injector.start()

    series = sample_gbps(testbed.env, {
        f"pf{pf.pf_id}": [partial(host.nic.pf_rx_bytes, pf.pf_id)]
        for pf in host.nic.pfs}, SAMPLE_NS, duration_ns)
    testbed.run(duration_ns + SAMPLE_NS)

    trace = injector.rendered_events() + [
        str(record) for record in host.machine.tracer.records]
    return FailoverRun(series, injector, workload, trace, host.driver)


class SsdFailoverRun:
    """Everything one faulted octoSSD run produces."""

    def __init__(self, series: Dict[str, TimeSeries],
                 injectors: List[FaultInjector], fleet: list,
                 trace: List[str], drivers: list):
        self.series = series
        self.injectors = injectors
        self.fleet = fleet
        self.trace = trace
        self.drivers = drivers


def run_ssd_failover(duration_ns: int, fail_at_ns: Optional[int] = None,
                     recover_at_ns: Optional[int] = None,
                     n_streams: int = SSD_STREAMS,
                     sample_ns: int = SAMPLE_NS) -> SsdFailoverRun:
    """One octoSSD run (Fig 15 setup) with an optional PF1 outage.

    The outage removes the fio socket's port on **every** drive — the
    shared-riser failure mode — so the whole fleet re-homes onto port 0
    and DMAs across the congested UPI until recovery.
    """
    host, drivers = build_nvme_host(octo_mode=True)
    machine = host.machine
    machine.tracer.enabled = True
    controllers = [driver.controller for driver in drivers]
    fio_cores = machine.cores_on_node(1)[:FIO_THREADS]
    fleet = spawn_fio_fleet(host, fio_cores, drivers, duration_ns)
    for i in range(n_streams):
        StreamThread(host, machine.cores_on_node(0)[i], target_node=1,
                     kind="write", duration_ns=duration_ns)

    plan = _outage_plan(fail_at_ns, recover_at_ns)
    injectors = [FaultInjector(machine.env, plan, device=ssd,
                               machine=machine,
                               rng=machine.rng.child(ssd.name))
                 for ssd in controllers]
    for injector in injectors:
        injector.start()

    series = sample_gbps(machine.env, {
        f"pf{pf_id}": [partial(ssd.pf_read_bytes, pf_id)
                       for ssd in controllers]
        for pf_id in (0, 1)}, sample_ns, duration_ns)
    machine.env.run(until=duration_ns + sample_ns)

    trace = [event for injector in injectors
             for event in injector.rendered_events()]
    trace += [str(record) for record in machine.tracer.records]
    return SsdFailoverRun(series, injectors, fleet, trace, drivers)


@register
class FigFailover(Experiment):
    name = "failover"
    paper_ref = "robustness extension (Fig 14 presentation)"
    description = ("per-PF throughput while PF1 is surprise-removed and "
                   "later recovered: the octoNIC degrades to remote-level "
                   "DMA through PF0 instead of dying, then returns to "
                   "full speed")
    #: One scenario: ``(duration_ns, fail_at_ns, recover_at_ns)`` to a
    #: run whose ``series`` holds the ``pf0``/``pf1`` samples.
    runner = staticmethod(run_failover)

    def notes(self, fail_at: int, recover_at: int) -> str:
        return (f"PF{FAILED_PF} removed at {fail_at / 1e6:.0f} ms, "
                f"recovered at {recover_at / 1e6:.0f} ms; samples every "
                f"{SAMPLE_NS / 1e6:.0f} ms")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = max(self.duration_ns(fidelity) * 10, 12 * SAMPLE_NS)
        fail_at = duration // 3
        recover_at = 2 * duration // 3
        result = self.result(
            ["scenario", "time_ms", "pf0_gbps", "pf1_gbps", "total_gbps"],
            notes=self.notes(fail_at, recover_at))
        scenarios = (
            ("baseline", None, None),
            ("pf1-outage", fail_at, recover_at),
        )
        for label, fail, recover in scenarios:
            run = self.runner(duration, fail, recover)
            for t, pf0, pf1 in zip(run.series["pf0"].times_ns,
                                   run.series["pf0"].values,
                                   run.series["pf1"].values):
                result.add(label, round(t / 1e6, 1), round(pf0, 2),
                           round(pf1, 2), round(pf0 + pf1, 2))
        return result


@register
class FigFailoverSsd(FigFailover):
    name = "failover_ssd"
    paper_ref = "§5.4 + robustness extension"
    description = ("per-port fio throughput while the remote socket's "
                   "NVMe port is surprise-removed and later recovered, "
                   "under UPI congestion: the octoSSD degrades to "
                   "single-port (remote-DMA) throughput through port 0 "
                   "instead of dying, then returns to full speed")
    runner = staticmethod(run_ssd_failover)

    def notes(self, fail_at: int, recover_at: int) -> str:
        return (f"port {FAILED_PF} of every drive removed at "
                f"{fail_at / 1e6:.0f} ms, recovered at "
                f"{recover_at / 1e6:.0f} ms; {SSD_STREAMS} STREAM "
                f"antagonists congest the UPI; samples every "
                f"{SAMPLE_NS / 1e6:.0f} ms")

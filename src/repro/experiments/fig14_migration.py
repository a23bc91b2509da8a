"""Figure 14 (§5.3): the steering switch under thread migration.

A TCP Rx netperf process is migrated to the other socket mid-run; per-PF
throughput is sampled every 50 ms.  With the octoNIC, IOctoRFS moves the
flow to the newly-local PF at full speed; with standard firmware the flow
is pinned to its PF and throughput drops to the remote level.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from repro.core.configurations import Testbed
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.runners import sample_gbps
from repro.metrics.collect import TimeSeries
from repro.nic.packet import Flow
from repro.units import KB
from repro.workloads.netperf import TcpStream

SAMPLE_NS = 50_000_000  # 50 ms, as in the paper


def run_migration(config: str, duration_ns: int,
                  migrate_at_ns: int) -> Dict[str, TimeSeries]:
    testbed = Testbed(config)
    host = testbed.server
    start_core = host.machine.cores_on_node(0)[0]
    target_core = host.machine.cores_on_node(1)[0]
    workload = TcpStream(host, start_core, Flow.make(0), 64 * KB, "rx",
                         duration_ns)

    def migrator():
        yield int(migrate_at_ns)
        host.scheduler.set_affinity(workload.thread, target_core)

    testbed.env.process(migrator(), name="migrator")
    series = sample_gbps(testbed.env, {
        f"pf{pf.pf_id}": [partial(host.nic.pf_rx_bytes, pf.pf_id)]
        for pf in host.nic.pfs}, SAMPLE_NS, duration_ns)
    testbed.run(duration_ns + SAMPLE_NS)
    return series


@register
class Fig14Migration(Experiment):
    name = "fig14"
    paper_ref = "Figure 14, §5.3"
    description = ("per-PF throughput while a netperf TCP Rx process "
                   "migrates across sockets: octoNIC re-steers at full "
                   "speed, standard NIC drops to remote level")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = max(self.duration_ns(fidelity) * 10, 8 * SAMPLE_NS)
        migrate_at = duration // 2
        result = self.result(
            ["config", "time_ms", "pf0_gbps", "pf1_gbps"],
            notes=f"migration at {migrate_at / 1e6:.0f} ms; samples every "
                  f"{SAMPLE_NS / 1e6:.0f} ms")
        configs = ("ioctopus", "local")
        runs = self.sweep(run_migration, [
            dict(config=config, duration_ns=duration,
                 migrate_at_ns=migrate_at)
            for config in configs])
        for config, series in zip(configs, runs):
            label = "octoNIC" if config == "ioctopus" else "ethNIC"
            for t, pf0, pf1 in zip(series["pf0"].times_ns,
                                   series["pf0"].values,
                                   series["pf1"].values):
                result.add(label, round(t / 1e6, 1), round(pf0, 2),
                           round(pf1, 2))
        return result

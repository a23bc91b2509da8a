"""Figure 10 (§5.1.3): memcached throughput vs. SET ratio.

Its points take no accuracy tier and run the fixed window at every
fidelity: most of them never converge early, so the fast path saved
little of the experiment's time.
"""

from __future__ import annotations

from repro.core.configurations import Testbed
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.runners import MembwProbe, run_with_slack, warmup_of
from repro.workloads.memcached import MemcachedServer

SET_RATIOS = [0.0, 0.25, 0.5, 0.75, 1.0]
#: memcached worker threads on the server (one core each).
WORKERS = 2


def run_memcached(config: str, set_fraction: float,
                  duration_ns: int) -> dict:
    testbed = Testbed(config)
    host = testbed.server
    cores = host.machine.cores_on_node(
        testbed.server_workload_node)[:WORKERS]
    server = MemcachedServer(host, cores, set_fraction, duration_ns,
                             warmup_of(duration_ns))
    probe = MembwProbe(testbed, duration_ns)
    run_with_slack(testbed, duration_ns)
    return {
        "ktps": server.transactions_ktps(),
        "membw_gbps": probe.gbps,
    }


@register
class Fig10Memcached(Experiment):
    name = "fig10"
    paper_ref = "Figure 10, §5.1.3"
    description = ("memcached with 256 B keys / 512 KB values served to "
                   "14 memslap clients: the ioct/local advantage grows "
                   "with the SET ratio (Rx traffic suffers NUDMA)")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity) * 3  # txns are ~100 us each
        result = self.result(
            ["set_pct", "ioct_ktps", "remote_ktps", "ratio",
             "ioct_membw_gbps", "remote_membw_gbps"],
            notes="paper: advantage grows to ~1.16x at 100% SET; remote "
                  "uses more memory bandwidth")
        runs = self.sweep(run_memcached, [
            dict(config=config, set_fraction=ratio, duration_ns=duration)
            for ratio in SET_RATIOS for config in ("ioctopus", "remote")])
        for i, ratio in enumerate(SET_RATIOS):
            ioct, remote = runs[2 * i:2 * i + 2]
            result.add(
                int(ratio * 100),
                round(ioct["ktps"], 2),
                round(remote["ktps"], 2),
                round(ioct["ktps"] / remote["ktps"], 2)
                if remote["ktps"] else 0.0,
                round(ioct["membw_gbps"], 2),
                round(remote["membw_gbps"], 2),
            )
        return result

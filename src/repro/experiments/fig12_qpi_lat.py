"""Figure 12 (§5.2): 64-byte UDP latency under QPI congestion."""

from __future__ import annotations

from typing import Optional

from repro.core.configurations import Testbed
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.runners import run_latency_point, warmup_of
from repro.workloads.sockperf import UdpPingPong
from repro.workloads.stream_bench import spawn_stream_pairs

STREAM_PAIRS = [1, 2, 3, 4, 5, 6]


def run_udp_latency(config: str, pairs: int, duration_ns: int,
                    accuracy: Optional[str] = None) -> float:
    """One sockperf point beside ``pairs`` STREAM pairs; returns the
    average one-way latency in us."""
    testbed = Testbed(config, accuracy=accuracy)
    workload = UdpPingPong(testbed, 64, duration_ns, warmup_of(duration_ns))
    spawn_stream_pairs(testbed.server, pairs, duration_ns,
                       skip_cores=[testbed.server_core(0)])
    run_latency_point(testbed, duration_ns, workload.latencies)
    return workload.average_one_way_us()


@register
class Fig12QpiLatency(Experiment):
    name = "fig12"
    paper_ref = "Figure 12, §5.2"
    description = ("sockperf 64 B UDP latency co-located with STREAM "
                   "pairs: ioct stays flat, remote grows with congestion "
                   "(ioct 10-22% lower)")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity)
        result = self.result(
            ["stream_pairs", "ioct_us", "remote_us",
             "ioct_over_remote"],
            notes="one-way latency; paper's 0.90/0.81/0.78 annotations "
                  "are ioct/remote ratios")
        runs = self.sweep(run_udp_latency, [
            dict(config=config, pairs=pairs, duration_ns=duration)
            for pairs in STREAM_PAIRS
            for config in ("ioctopus", "remote")])
        for i, pairs in enumerate(STREAM_PAIRS):
            ioct, remote = runs[2 * i:2 * i + 2]
            result.add(pairs, round(ioct, 2), round(remote, 2),
                       round(ioct / remote, 2))
        return result

"""Figure 12 (§5.2): 64-byte UDP latency under QPI congestion."""

from __future__ import annotations

from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.runners import run_rr

STREAM_PAIRS = [1, 2, 3, 4, 5, 6]


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
        # sockperf beside the STREAM pairs; it reports one-way latency
        # (RTT/2) in us.
        runs = [rtt / 2 / 1000.0 for rtt in self.sweep(run_rr, [
            dict(config=config, message_bytes=64, duration_ns=duration,
                 protocol="udp", stream_pairs=pairs)
            for pairs in STREAM_PAIRS
            for config in ("ioctopus", "remote")])]
        for i, pairs in enumerate(STREAM_PAIRS):
            ioct, remote = runs[2 * i:2 * i + 2]
            result.add(pairs, round(ioct, 2), round(remote, 2),
                       round(ioct / remote, 2))
        return result

"""Figure 9 (§5.1.2): TCP RR latency, rr and llnd normalised to ll.

:func:`run_breakdown` augments the figure with the paper's latency
*analysis*: the same RR variants run with blame collection attached, so
the rr-over-ll gap decomposes into named stages (QPI doorbell/DMA/IRQ
transit, DDIO-miss completion and payload reads) instead of a single
ratio.  ``ioctopus-repro obs blame --workload rr`` is the one-variant
view; this is all three side by side.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.base import Experiment, ExperimentResult, \
    duration_of, register
from repro.experiments.runners import run_rr
from repro.units import KB

MESSAGE_SIZES = [1, 64, 256, 1 * KB, 4 * KB, 16 * KB, 64 * KB]

#: The figure's variants as (label, server, client, ddio): both-local,
#: both-remote, and local with DDIO off in hardware.
BREAKDOWN_VARIANTS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("ll", "local", "local", True),
    ("rr", "remote", "remote", True),
    ("llnd", "local", "local", False),
)


def run_breakdown(message_bytes: int = 64, fidelity: str = "quick",
                  accuracy: str = "exact", seed: int = 0) -> Dict:
    """Per-stage latency budgets for the figure's three RR variants."""
    from repro.obs.blame import run_blame_point
    duration = duration_of(fidelity)
    variants = {}
    for label, server, client, ddio in BREAKDOWN_VARIANTS:
        variants[label] = run_blame_point(
            "rr", server, size=message_bytes, duration_ns=duration,
            seed=seed, accuracy=accuracy, client_config=client, ddio=ddio)
    return {"figure": "fig09", "message_bytes": message_bytes,
            "fidelity": fidelity, "accuracy": accuracy, "seed": seed,
            "variants": variants}


def render_breakdown(breakdown: Dict) -> str:
    """Paper-style stage table: one column per variant, mean ns per
    round trip, NUDMA stages starred."""
    from repro.obs.blame import is_nudma_stage
    variants = breakdown["variants"]
    labels = list(variants)
    stages: List[str] = []
    for report in variants.values():
        for row in report["stages"]:
            if row["stage"] not in stages:
                stages.append(row["stage"])
    stages.sort()
    means = {label: {row["stage"]: row["mean_ns"]
                     for row in report["stages"]}
             for label, report in variants.items()}
    lines = [
        f"fig09 latency breakdown: {breakdown['message_bytes']} B RR, "
        f"{breakdown['fidelity']}/{breakdown['accuracy']} "
        f"(mean ns per flow)",
        "",
        "  " + f"{'stage':16s}" + "".join(f"{label:>10}"
                                          for label in labels),
    ]
    for stage in stages:
        mark = " *" if is_nudma_stage(stage) else ""
        lines.append("  " + f"{stage:16s}" + "".join(
            f"{means[label].get(stage, 0.0):>10.1f}"
            for label in labels) + mark)
    lines.append("  " + f"{'e2e mean':16s}" + "".join(
        f"{variants[label]['e2e']['mean_ns']:>10.1f}"
        for label in labels))
    lines.append("  " + f"{'rtt (result)':16s}" + "".join(
        f"{variants[label]['result']['rtt_ns']:>10.0f}"
        for label in labels))
    ok = all(variants[label]["conservation"]["ok"] for label in labels)
    lines.append("")
    lines.append("  conservation: " + ("exact in all variants" if ok
                                       else "VIOLATED"))
    lines.append("  * = NUDMA stage (QPI transit or DDIO-miss/remote "
                 "DRAM)")
    return "\n".join(lines)


@register
class Fig09Latency(Experiment):
    name = "fig09"
    paper_ref = "Figure 9, §5.1.2"
    description = ("netperf TCP RR: NUDMA on the critical path adds "
                   "10-25%; the QPI crossing alone (llnd) is 5-15%")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity)
        result = self.result(
            ["msg_bytes", "ll_us", "rr_us", "llnd_us",
             "rr_over_ll", "llnd_over_ll"],
            notes="ll/rr: both sides local/remote; nd: DDIO disabled in "
                  "hardware on both sides")
        runs = self.sweep(run_rr, [
            dict(config=server, client_config=client, ddio=ddio,
                 message_bytes=msg, duration_ns=duration)
            for msg in MESSAGE_SIZES
            for _, server, client, ddio in BREAKDOWN_VARIANTS])
        for i, msg in enumerate(MESSAGE_SIZES):
            ll, rr, llnd = runs[3 * i:3 * i + 3]
            result.add(
                msg,
                round(ll / 1000, 2),
                round(rr / 1000, 2),
                round(llnd / 1000, 2),
                round(rr / ll, 3),
                round(llnd / ll, 3),
            )
        return result

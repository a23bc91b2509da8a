"""Differential run analysis: where did the delta come from?

``obs diff`` takes two blame reports — run fresh (``--a-config remote
--b-config ioctopus``) or loaded from JSON (``--a FILE``) — and
attributes the end-to-end latency delta stage-by-stage and the
observable differences counter-by-counter.

Because every sealed flow's stage charges sum exactly to its
end-to-end latency, the per-stage *mean* deltas sum exactly to the
end-to-end mean delta: the attribution is a decomposition, not a
heuristic.  The tail attribution does the same over each report's
p99-tail population (per-tail-request means), answering "which stages
moved the p99".  Stages whose relative movement is below
``INERT_REL`` are flagged inert, same convention as the ablation
engine.

The headline number is ``nudma_share``: the fraction of the mean delta
carried by ``.qpi``/``.miss`` stages, netted within each stage family
so a ``dma.local -> dma.qpi`` relabel attributes only its excess cost —
for ioctopus-vs-remote this is the paper's whole story (QPI transit
plus remote-DRAM completion reads), and the CI smoke test asserts it
stays >= 0.8.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.obs.blame import is_nudma_stage, run_blame_point, stage_family

#: Relative movement below this is reported as inert (noise), matching
#: the ablation engine's convention.
INERT_REL = 0.002


def _stage_index(report: Dict) -> Dict[str, Dict]:
    return {row["stage"]: row for row in report.get("stages", ())}


def _rel(delta: float, base: float) -> float:
    return delta / base if base else 0.0


def _clamp_toward(value: float, bound: float) -> float:
    """Clamp ``value`` into the interval between 0 and ``bound``."""
    if bound >= 0:
        return min(max(value, 0.0), bound)
    return max(min(value, 0.0), bound)


def diff_reports(report_a: Dict, report_b: Dict,
                 label_a: str = "a", label_b: str = "b") -> Dict:
    """Stage-by-stage and counter-by-counter attribution of B - A."""
    e2e_a, e2e_b = report_a["e2e"], report_b["e2e"]
    mean_delta = e2e_b["mean_ns"] - e2e_a["mean_ns"]
    stages_a = _stage_index(report_a)
    stages_b = _stage_index(report_b)

    rows: List[Dict] = []
    for name in sorted(set(stages_a) | set(stages_b)):
        a = stages_a.get(name)
        b = stages_b.get(name)
        mean_a = a["mean_ns"] if a else 0.0
        mean_b = b["mean_ns"] if b else 0.0
        tail_a = a["tail_mean_ns"] if a else 0.0
        tail_b = b["tail_mean_ns"] if b else 0.0
        d_mean = mean_b - mean_a
        d_tail = tail_b - tail_a
        nudma = is_nudma_stage(name)
        rows.append({
            "stage": name,
            "family": stage_family(name),
            "nudma": nudma,
            "mean_a_ns": mean_a,
            "mean_b_ns": mean_b,
            "delta_mean_ns": d_mean,
            "share_of_delta": _rel(d_mean, mean_delta),
            "tail_a_ns": tail_a,
            "tail_b_ns": tail_b,
            "delta_tail_ns": d_tail,
            "inert": abs(d_mean) <= INERT_REL * max(
                abs(e2e_a["mean_ns"]), abs(e2e_b["mean_ns"]), 1.0),
        })
    rows.sort(key=lambda row: (-abs(row["delta_mean_ns"]), row["stage"]))

    # Family-level net deltas (families also sum exactly to the e2e
    # mean delta).  A configuration change mostly *relabels* stages
    # within a family (dma.local -> dma.qpi, cq.hit -> cq.miss), so the
    # NUDMA-attributable part of a family's movement is its NUDMA
    # variants' delta clamped to the family's net movement: the +567/-550
    # irq.local->irq.qpi swap attributes only its +17 ns net excess.
    families: Dict[str, Dict[str, float]] = {}
    for row in rows:
        family = families.setdefault(
            row["family"], {"mean": 0.0, "tail": 0.0,
                            "nudma_mean": 0.0, "nudma_tail": 0.0})
        family["mean"] += row["delta_mean_ns"]
        family["tail"] += row["delta_tail_ns"]
        if row["nudma"]:
            family["nudma_mean"] += row["delta_mean_ns"]
            family["nudma_tail"] += row["delta_tail_ns"]
    nudma_mean = 0.0
    nudma_tail = 0.0
    tail_delta_sum = 0.0
    family_rows = []
    for name, f in families.items():
        attributed = _clamp_toward(f["nudma_mean"], f["mean"])
        attributed_tail = _clamp_toward(f["nudma_tail"], f["tail"])
        nudma_mean += attributed
        nudma_tail += attributed_tail
        tail_delta_sum += f["tail"]
        family_rows.append({
            "family": name,
            "delta_mean_ns": f["mean"],
            "share_of_delta": _rel(f["mean"], mean_delta),
            "nudma_mean_ns": attributed,
        })
    family_rows.sort(key=lambda row: (-abs(row["delta_mean_ns"]),
                                      row["family"]))

    counters = _diff_counters(report_a.get("counters"),
                              report_b.get("counters"))
    results = _diff_counters(_numeric(report_a.get("result")),
                             _numeric(report_b.get("result")))

    return {
        "a": {"label": label_a, "point": report_a.get("point"),
              "e2e": e2e_a, "units": report_a.get("units", 0)},
        "b": {"label": label_b, "point": report_b.get("point"),
              "e2e": e2e_b, "units": report_b.get("units", 0)},
        "e2e_delta": {
            "mean_ns": mean_delta,
            "p50_ns": e2e_b["p50_ns"] - e2e_a["p50_ns"],
            "p99_ns": e2e_b["p99_ns"] - e2e_a["p99_ns"],
            "rel_mean": _rel(mean_delta, e2e_a["mean_ns"]),
        },
        "stages": rows,
        "families": family_rows,
        # Σ over .qpi/.miss stages of the mean delta, over the total:
        # the share of the movement the NUDMA story explains.
        "nudma_share": _rel(nudma_mean, mean_delta),
        "nudma_tail_share": _rel(nudma_tail, tail_delta_sum),
        "nudma_delta_mean_ns": nudma_mean,
        "result_delta": results,
        "counters": counters,
        "conservation_ok": (report_a["conservation"]["ok"]
                            and report_b["conservation"]["ok"]),
    }


def _numeric(result: Optional[Dict]) -> Optional[Dict]:
    if not isinstance(result, dict):
        return None
    return {key: value for key, value in result.items()
            if isinstance(value, (int, float))}


def _diff_counters(a: Optional[Dict], b: Optional[Dict]) -> List[Dict]:
    if not a and not b:
        return []
    a = a or {}
    b = b or {}
    rows = []
    for name in sorted(set(a) | set(b)):
        va = float(a.get(name, 0))
        vb = float(b.get(name, 0))
        delta = vb - va
        rel = _rel(delta, abs(va) or abs(vb))
        rows.append({"name": name, "a": va, "b": vb, "delta": delta,
                     "rel_delta": rel,
                     "inert": abs(rel) <= INERT_REL})
    rows.sort(key=lambda row: (-abs(row["rel_delta"]), row["name"]))
    return rows


# -------------------------------------------------------------- rendering

def render_json(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _point_label(side: Dict) -> str:
    point = side.get("point")
    if not point:
        return side["label"]
    return (f"{side['label']} ({point.get('workload')} "
            f"{point.get('config')} {point.get('size')}B "
            f"{point.get('accuracy')})")


def render_text(report: Dict) -> str:
    a, b = report["a"], report["b"]
    delta = report["e2e_delta"]
    lines = [
        f"diff: {_point_label(b)} - {_point_label(a)}",
        f"  e2e mean {a['e2e']['mean_ns']:.1f} -> "
        f"{b['e2e']['mean_ns']:.1f} ns "
        f"({delta['mean_ns']:+.1f} ns, {delta['rel_mean']:+.1%}); "
        f"p50 {delta['p50_ns']:+d} ns, p99 {delta['p99_ns']:+d} ns",
        f"  conservation: "
        f"{'ok both sides' if report['conservation_ok'] else 'VIOLATED'}",
        "",
        f"  {'stage':16s} {'mean a':>10} {'mean b':>10} {'delta':>10} "
        f"{'share':>7}  verdict",
    ]
    for row in report["stages"]:
        mark = " *" if row["nudma"] else ""
        verdict = "inert" if row["inert"] else "moved"
        lines.append(
            f"  {row['stage']:16s} {row['mean_a_ns']:>10.1f} "
            f"{row['mean_b_ns']:>10.1f} {row['delta_mean_ns']:>+10.1f} "
            f"{row['share_of_delta']:>7.1%}  {verdict}{mark}")
    lines.append("")
    lines.append(
        f"  NUDMA stages (*) carry {report['nudma_share']:.1%} of the "
        f"mean delta ({report['nudma_delta_mean_ns']:+.1f} ns), "
        f"{report['nudma_tail_share']:.1%} of the tail movement")
    moved = [row for row in report["counters"] if not row["inert"]]
    if moved:
        lines.append("")
        lines.append(f"  {'counter':36s} {'a':>12} {'b':>12} {'rel':>8}")
        for row in moved[:12]:
            lines.append(
                f"  {row['name']:36s} {row['a']:>12.4g} {row['b']:>12.4g} "
                f"{row['rel_delta']:>+8.1%}")
        if len(moved) > 12:
            lines.append(f"  ... and {len(moved) - 12} more "
                         f"non-inert counters")
    for row in report["result_delta"]:
        lines.append(f"  result {row['name']}: {row['a']:.4g} -> "
                     f"{row['b']:.4g} ({row['rel_delta']:+.1%})")
    return "\n".join(lines)


# -------------------------------------------------------------------- CLI

def _load(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.base import DURATIONS_MS
    from repro.experiments.cli import positive_int
    from repro.sim.engine import ACCURACY_MODES
    parser = argparse.ArgumentParser(
        prog="ioctopus-repro obs diff",
        description="Attribute the latency delta between two runs "
                    "stage-by-stage and counter-by-counter")
    parser.add_argument("--a", metavar="FILE", default=None,
                        help="load side A from an obs blame JSON report "
                             "instead of running it")
    parser.add_argument("--b", metavar="FILE", default=None,
                        help="load side B from a JSON report")
    parser.add_argument("--workload", default="pktgen",
                        choices=("pktgen", "tcp_rx", "tcp_tx", "rr"))
    parser.add_argument("--a-config", default="ioctopus",
                        choices=("local", "remote", "ioctopus"))
    parser.add_argument("--b-config", default="remote",
                        choices=("local", "remote", "ioctopus"))
    parser.add_argument("--size", type=positive_int, default=None,
                        help="packet/message bytes (default: 256 for "
                             "pktgen, 64 for rr, 16384 for tcp_*)")
    parser.add_argument("--fidelity", default="quick",
                        choices=tuple(sorted(DURATIONS_MS)))
    parser.add_argument("--accuracy", default="exact",
                        choices=ACCURACY_MODES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON diff to FILE")
    return parser


def _default_size(workload: str) -> int:
    if workload == "pktgen":
        return 256
    if workload == "rr":
        return 64
    return 16384


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.base import DURATIONS_MS
    from repro.workloads.pktgen import MIN_PACKET_BYTES
    parser = build_parser()
    args = parser.parse_args(argv)
    size = args.size if args.size is not None \
        else _default_size(args.workload)
    if args.workload == "pktgen" and size < MIN_PACKET_BYTES:
        parser.error(f"argument --size: must be >= {MIN_PACKET_BYTES} "
                     f"for pktgen, got {size}")
    duration = DURATIONS_MS[args.fidelity] * 1_000_000

    def side(path: Optional[str], config: str) -> Tuple[Dict, str]:
        if path:
            return _load(path), path
        report = run_blame_point(args.workload, config, size=size,
                                 duration_ns=duration, seed=args.seed,
                                 accuracy=args.accuracy)
        return report, config

    report_a, label_a = side(args.a, args.a_config)
    report_b, label_b = side(args.b, args.b_config)
    report = diff_reports(report_a, report_b, label_a, label_b)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_json(report) + "\n")
    print(render_json(report) if args.json else render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

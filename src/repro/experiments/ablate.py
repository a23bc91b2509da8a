"""Automated component ablation: which mechanism earns its keep?

The paper argues IOctopus from a stack of cooperating mechanisms —
per-socket PFs, flow steering, DDIO, drain-before-resteer, adaptive
moderation.  This engine measures each one's *importance*: it runs a
figure's representative point under the baseline
:class:`~repro.components.SystemConfig`, then once per registered
component with that component switched off (leave-one-out, optionally
all pairs), and ranks the components by how much the metric degrades
without them.

Every matrix row is one :class:`SystemConfig` with a stable
content-hash :meth:`~repro.components.SystemConfig.run_id`, and rows
execute through the same :func:`~repro.experiments.sweep.sweep_map`
executor the figures use — so ``--jobs`` fans them out and a configured
``--cache-dir`` makes a re-run (or another process generating the same
matrix) pure cache hits.

CLI::

    ioctopus-repro ablate --figure fig08 --fidelity quick
    ioctopus-repro ablate --figure fig09 --pairwise --jobs 4 --json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.components import PRESETS, SystemConfig, loo_matrix
from repro.experiments.base import (ACCURACY_MODES, DURATIONS_MS,
                                    duration_of, resolve_accuracy)
from repro.experiments.cli import check_environment, positive_int
from repro.experiments.runners import run_pktgen, run_rr, run_tcp_stream
from repro.units import KB

#: Leave-one-out deltas smaller than this (relative to baseline) are
#: noise, not importance: the component is reported as inert for the
#: figure rather than ranked above/below a genuinely load-bearing one.
INERT_REL = 0.002


@dataclass(frozen=True)
class AblationTarget:
    """One figure's representative point, as an ablatable metric."""

    figure: str
    metric: str
    unit: str
    #: False for latency-style metrics where lower is better.
    higher_is_better: bool
    #: Module-level point runner (picklable by path for sweep workers)
    #: whose first parameter, ``config``, is the server arrangement.
    fn: Callable
    #: Fixed kwargs of the representative point; the engine adds
    #: ``config`` (the matrix row's preset) and
    #: ``duration_ns``/``seed``/``accuracy``/``components``.
    base_params: Tuple[Tuple[str, object], ...]
    #: Key of ``metric`` in the runner's result dict; None when the
    #: runner returns the scalar itself (run_rr).
    result_key: Optional[str]
    description: str


_TARGETS: Dict[str, AblationTarget] = {}


def register_target(target: AblationTarget) -> AblationTarget:
    if target.figure in _TARGETS:
        raise ValueError(f"duplicate ablation target {target.figure!r}")
    _TARGETS[target.figure] = target
    return target


def get_target(figure: str) -> AblationTarget:
    try:
        return _TARGETS[figure]
    except KeyError:
        raise KeyError(f"no ablation target for {figure!r}; "
                       f"known: {sorted(_TARGETS)}") from None


def target_names() -> List[str]:
    return sorted(_TARGETS)


register_target(AblationTarget(
    figure="fig08", metric="mpps", unit="Mpps", higher_is_better=True,
    fn=run_pktgen,
    base_params=(("packet_bytes", 64),),
    result_key="mpps",
    description="single-core 64 B pktgen rate (§5.1.1)"))

register_target(AblationTarget(
    figure="fig06", metric="throughput_gbps", unit="Gb/s",
    higher_is_better=True, fn=run_tcp_stream,
    base_params=(("message_bytes", 16 * KB), ("direction", "rx")),
    result_key="throughput_gbps",
    description="single-flow 16 KB TCP Rx throughput (§5.1.2)"))

register_target(AblationTarget(
    figure="fig07", metric="throughput_gbps", unit="Gb/s",
    higher_is_better=True, fn=run_tcp_stream,
    base_params=(("message_bytes", 16 * KB), ("direction", "tx")),
    result_key="throughput_gbps",
    description="single-flow 16 KB TCP Tx throughput (§5.1.2)"))

register_target(AblationTarget(
    figure="fig09", metric="rtt_ns", unit="ns", higher_is_better=False,
    fn=run_rr,
    base_params=(("message_bytes", 64),),
    result_key=None,
    description="64 B TCP_RR round-trip latency (§5.1.3)"))


# ----------------------------------------------------------------- engine

def matrix_points(target: AblationTarget,
                  matrix: Sequence[SystemConfig],
                  duration_ns: int, seed: int,
                  accuracy: str) -> List[Dict]:
    """One sweep point per matrix row.  The row's preset and components
    dict ride in the point's JSON kwargs, so the sweep cache key — like
    the row's ``run_id()`` — is a pure function of the configuration
    content."""
    points = []
    for config in matrix:
        point = dict(target.base_params)
        point["config"] = config.preset
        point["duration_ns"] = duration_ns
        point["seed"] = seed
        point["accuracy"] = accuracy
        point["components"] = {name: enabled
                               for name, enabled in config.overrides}
        points.append(point)
    return points


def _metric_of(target: AblationTarget, result) -> float:
    if target.result_key is None:
        return float(result)
    return float(result[target.result_key])


def run_ablation(figure: str, fidelity: str = "quick",
                 accuracy: Optional[str] = None,
                 pairwise: bool = False,
                 components: Optional[Sequence[str]] = None,
                 preset: str = "ioctopus", seed: int = 0,
                 duration_ns: Optional[int] = None) -> Dict:
    """Run the full ablation matrix for ``figure`` and build the report.

    Returns a plain-JSON report dict: baseline row plus one ranked row
    per leave-one-out (and, with ``pairwise``, per pair), each carrying
    its stable ``run_id``, metric value, delta vs baseline, and a
    ``harmful`` flag when removing the component *improved* the metric.
    A run that names no ``accuracy`` resolves it as
    :meth:`~repro.experiments.base.Experiment.accuracy` does: the
    ``configure_accuracy`` override, then ``REPRO_ACCURACY``, then
    adaptive at quick fidelity and exact otherwise.
    """
    from repro.experiments.sweep import cache_stats, sweep_map
    target = get_target(figure)
    if accuracy is None:
        accuracy = resolve_accuracy(
            "adaptive" if fidelity == "quick" else "exact")
    if duration_ns is None:
        duration_ns = duration_of(fidelity)
    base = SystemConfig(preset=preset)
    matrix = loo_matrix(base, names=components, pairwise=pairwise)
    points = matrix_points(target, matrix, duration_ns, seed, accuracy)
    before = cache_stats()
    results = sweep_map(target.fn, points)
    after = cache_stats()
    lookups = after["lookups"] - before["lookups"]
    hits = after["hits"] - before["hits"]

    baseline_value = _metric_of(target, results[0])
    sign = 1.0 if target.higher_is_better else -1.0
    rows = []
    for config, result in zip(matrix[1:], results[1:]):
        value = _metric_of(target, result)
        delta = value - baseline_value
        rel = delta / baseline_value if baseline_value else 0.0
        # Importance: how much the metric *degrades* without the
        # component(s) — positive means the mechanism earns its keep.
        importance = -sign * delta
        rel_importance = -sign * rel
        rows.append({
            "components": list(config.disabled_components()),
            "label": config.label(),
            "run_id": config.run_id(),
            "value": value,
            "delta": delta,
            "rel_delta": rel,
            "importance": importance,
            "rel_importance": rel_importance,
            "inert": abs(rel) <= INERT_REL,
            "harmful": rel_importance < -INERT_REL,
        })
    rows.sort(key=lambda row: (-row["rel_importance"],
                               row["label"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return {
        "figure": figure,
        "description": target.description,
        "metric": target.metric,
        "unit": target.unit,
        "higher_is_better": target.higher_is_better,
        "preset": preset,
        "fidelity": fidelity,
        "accuracy": accuracy,
        "seed": seed,
        "duration_ns": duration_ns,
        "pairwise": pairwise,
        "baseline": {"label": base.label(), "run_id": base.run_id(),
                     "value": baseline_value},
        "rows": rows,
        "cache": {"lookups": lookups, "hits": hits,
                  "hit_rate": hits / lookups if lookups else 0.0},
    }


# -------------------------------------------------------------- rendering

def render_json(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def render_text(report: Dict) -> str:
    """Ranked importance table, baseline first."""
    better = "higher" if report["higher_is_better"] else "lower"
    unit = report["unit"]
    base = report["baseline"]
    lines = [
        f"ablation {report['figure']}: {report['description']}",
        f"  metric {report['metric']} [{unit}] ({better} is better), "
        f"preset {report['preset']}, fidelity {report['fidelity']}, "
        f"accuracy {report['accuracy']}",
        f"  baseline {base['label']} [{base['run_id']}]: "
        f"{base['value']:.4g} {unit}",
        "",
        f"  {'rank':>4}  {'removed':28s} {'run_id':12s} "
        f"{'value':>10} {'delta':>10} {'rel':>8}  verdict",
    ]
    for row in report["rows"]:
        removed = "+".join(row["components"]) or "(none)"
        if row["harmful"]:
            verdict = "HARMFUL (metric improves without it)"
        elif row["inert"]:
            verdict = "inert here"
        else:
            verdict = "load-bearing"
        lines.append(
            f"  {row['rank']:>4}  {removed:28s} {row['run_id']:12s} "
            f"{row['value']:>10.4g} {row['delta']:>+10.4g} "
            f"{row['rel_delta']:>+8.1%}  {verdict}")
    cache = report.get("cache") or {}
    if cache.get("lookups"):
        lines.append("")
        lines.append(f"  sweep cache: {cache['hits']}/{cache['lookups']} "
                     f"hits ({cache['hit_rate']:.0%})")
    return "\n".join(lines)


# -------------------------------------------------------------------- CLI

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioctopus-repro ablate",
        description="Leave-one-out component ablation with importance "
                    "ranking over the registered figure targets")
    parser.add_argument("--figure", default="fig08",
                        help=f"figure target ({', '.join(target_names())})")
    parser.add_argument("--fidelity", default="quick",
                        choices=tuple(sorted(DURATIONS_MS)),
                        help="simulated duration per matrix row")
    parser.add_argument("--accuracy", default=None, choices=ACCURACY_MODES,
                        help="accuracy tier (default: REPRO_ACCURACY "
                             "if set, else adaptive for quick and exact "
                             "otherwise)")
    parser.add_argument("--pairwise", action="store_true",
                        help="also ablate every component pair")
    parser.add_argument("--components", default=None, metavar="A,B,...",
                        help="restrict the matrix to these components "
                             "(default: every registered component)")
    parser.add_argument("--preset", default="ioctopus", choices=PRESETS,
                        help="baseline system preset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=positive_int, default=None,
                        metavar="N",
                        help="fan matrix rows across N worker processes")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="sweep cache directory (stable run IDs "
                             "make re-runs pure cache hits)")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw JSON report")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None or args.cache_dir is not None:
        from repro.experiments.sweep import configure
        configure(jobs=args.jobs, cache_dir=args.cache_dir)
    check_environment(parser, args.accuracy, args.jobs)
    components = None
    if args.components:
        components = [name.strip()
                      for name in args.components.split(",") if name.strip()]
    try:
        report = run_ablation(args.figure, fidelity=args.fidelity,
                              accuracy=args.accuracy,
                              pairwise=args.pairwise,
                              components=components, preset=args.preset,
                              seed=args.seed)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_json(report) + "\n")
    print(render_json(report) if args.json else render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

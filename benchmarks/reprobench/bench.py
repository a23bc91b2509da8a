"""Reproduction benchmark: host time, memory and accuracy of the simulator.

Run from the repository root::

    python3 benchmarks/reprobench/bench.py                  # every workload
    python3 benchmarks/reprobench/bench.py --workload net_quick --seed 3
    python3 benchmarks/reprobench/bench.py --trace          # per-layer run
    python3 benchmarks/reprobench/bench.py --write-reference
    python3 benchmarks/reprobench/bench.py compare A.json ... -- B.json ...

Each workload is a list of registered experiments at a fixed fidelity and
accuracy tier, run in its own fresh child process (``child.py``), one
workload after another.  Every metric is printed as
``<workload>.<metric> <value> <unit>``; the full result, with provenance,
goes to a JSON file under ``out/``; the last stdout line is a JSON summary
(``correct``, ``attempted``, ``failed``, ``metrics``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import accuracy  # noqa: E402  (sibling modules; need HERE on sys.path)
import calibrate  # noqa: E402

ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

_NET_EXACT = ["fig06", "fig07", "fig08", "fig09", "fig10", "fig13",
              "fig14", "sec24", "sec511", "failover", "abl_ddio",
              "abl_scale", "abl_wiring", "abl_mixed_io"]

#: name -> experiments, fidelity, pinned accuracy tier (None: each
#: experiment's own default for the fidelity), the experiments a traced
#: run profiles (default: all) and the ``wall_s`` bound ``compare`` uses
#: (default: BENCHMARK.json's, the largest of them).  Why each exists is
#: in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Dict] = {
    "stream_quick": {
        "experiments": ["fig11", "fig12", "fig15", "abl_window",
                        "abl_octossd"],
        "fidelity": "quick", "accuracy": None,
        # fig12 drives the same STREAM and QPI paths as fig11 at twice
        # the cost; profiling it too would take a traced run past
        # RUN_TIMEOUT_S while the host runs at its slow speed.
        "traced": ["fig11", "fig15", "abl_window", "abl_octossd"],
        "wall_bound": 0.05},
    "net_quick": {
        "experiments": ["fig02", "abl_sg"] + _NET_EXACT,
        "fidelity": "quick", "accuracy": None},
    "fleet_quick": {
        "experiments": ["fig16"], "fidelity": "quick", "accuracy": None},
    "net_exact_normal": {
        "experiments": _NET_EXACT, "fidelity": "normal",
        "accuracy": "exact", "wall_bound": 0.05},
    # Not in BENCHMARK.json: one pass takes 42 s, which would more than
    # double the time of the repeated-run sets its workloads are judged
    # by, and profiled it would outlive RUN_TIMEOUT_S.  A plain
    # invocation runs it, so quick_repro_s covers every experiment.
    "ssd_quick": {
        "experiments": ["failover_ssd"], "fidelity": "quick",
        "accuracy": None, "traced": [], "wall_bound": 0.05},
}

#: Spawns per workload whose time-to-READY gives ``setup_s`` (median);
#: the last one is the measuring child.
SETUP_SPAWNS = 5

#: Seconds a child may live before it is killed and the run fails.  An
#: invocation must end within 180 s.  The slowest child, a traced
#: stream_quick, took 99 s with the reference host at its slow speed.
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 170

#: Deterministic end-to-end metrics with absolute regression bounds, for
#: ``compare``: any increase in failures or off-tolerance cells, and the
#: worst deviation may grow by at most this many percentage points.
ACCURACY_GATES = {
    "fail_frac": {"better": "lower", "bound": 0.0},
    "max_dev_pct": {"better": "lower", "bound": accuracy.MAX_DEV_SLACK_PCT},
    "cells_off": {"better": "lower", "bound": 0.0},
}


def load_benchmark() -> Dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def _child_env() -> Dict[str, str]:
    """The caller's environment minus every REPRO_* knob (accuracy
    override, sweep cache, sweep jobs), so a developer's shell cannot turn
    a run into cache hits or another tier."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(spec: Dict, timeout: float, script: Path = CHILD
          ) -> Tuple[float, float, Optional[Dict]]:
    """Run one child (``script``: a test may stand in a wrapper around
    child.py); returns (seconds from spawn to READY, the mean
    calibration-kernel time the child sampled until then, its result JSON
    or None in setup mode).  Raises RuntimeError when the child fails or
    outlives ``timeout``; the child is always reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(script), json.dumps(spec)], cwd=ROOT,
        env=_child_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.startswith("READY "):
                ready = time.perf_counter() - start
                kernel = float(line.split()[1])
                break
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"child for {spec['workload']} exited {code} "
                           f"(mode {spec['mode']}, timeout {timeout} s)")
    if spec["mode"] == "setup":
        return ready, kernel, None
    return ready, kernel, json.loads(rest.strip().splitlines()[-1])


def _spec(workload: str, mode: str, seed: int, seconds: float,
          out_dir: Path, exact_tier: bool = False) -> Dict:
    definition = WORKLOADS[workload]
    experiments = definition["experiments"]
    if mode == "trace":
        experiments = definition.get("traced", experiments)
    return {"workload": workload, "mode": mode,
            "experiments": experiments,
            "fidelity": definition["fidelity"],
            "accuracy": "exact" if exact_tier else definition["accuracy"],
            "seed": seed, "seconds": seconds,
            "spans_path": str(out_dir / f"{workload}.spans.json"),
            "prof_path": str(out_dir / f"{workload}.prof")}


def _tables(records: Dict) -> Dict[str, Dict]:
    return {name: record["table"] for name, record in records.items()
            if "table" in record}


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------

def _ops(passes: List[Dict], reference: Dict, exact: bool) -> Dict:
    """Count ops and failures over every pass and score each pass's
    tables against the reference.  Per pass, an op is each experiment
    run (an exception fails it), each registered claim check, and each
    reference-table comparison (a run that raised has no table, so its
    comparison fails too).  Cells less accurate than their baseline are
    ``regressions``: they fail no op, but make the run incorrect."""
    attempted, failures, regressions, scores = 0, [], [], []
    for index, records in enumerate(passes):
        for name, record in records.items():
            attempted += 2  # the run and its table comparison
            if "error" in record:
                failures += [f"pass {index} {name}: raised\n"
                             f"{record['error']}",
                             f"pass {index} {name}: no table to compare"]
                continue
            for check in record["claims"]:
                attempted += 1
                if not check["passed"]:
                    failures.append(f"pass {index} {name}: claim failed: "
                                    f"{check['claim']} ({check['detail']})")
        score = accuracy.compare_tables(_tables(records), reference, exact)
        failures += [f"pass {index} {text}" for text in score["failures"]]
        regressions += [f"pass {index} {text}"
                        for text in score["regressions"]]
        scores.append(score)
    return {"attempted": attempted, "failures": failures,
            "regressions": regressions, "scores": scores}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> Dict:
    definition = WORKLOADS[workload]
    ref_path = REFERENCE_DIR / f"{workload}.json"
    # Without a reference file every table comparison fails.
    reference = (accuracy.load_reference(ref_path) if ref_path.exists()
                 else {"tables": {}})
    setup_raw, setup_scaled = [], []

    def timed_spawn(mode: str, timeout: float) -> Optional[Dict]:
        ready, kernel, child = spawn(
            _spec(workload, mode, seed, seconds, out_dir), timeout)
        setup_raw.append(ready)
        setup_scaled.append(calibrate.scaled(ready, kernel))
        return child

    if not trace:
        for _ in range(SETUP_SPAWNS - 1):
            timed_spawn("setup", SETUP_TIMEOUT_S)
    child = timed_spawn("trace" if trace else "measure", RUN_TIMEOUT_S)

    ops = _ops(child["passes"], reference,
               exact=definition["accuracy"] == "exact")
    failed = len(ops["failures"])
    score = max(ops["scores"], key=lambda s: (s["max_dev_pct"],
                                              s["cells_off"]))
    notes = ops["failures"] + ops["regressions"]
    worst = score["worst"]
    metrics: Dict[str, Dict] = {
        "fail_frac": {"value": failed / ops["attempted"], "unit": "ratio",
                      "detail": f"{failed}/{ops['attempted']}"},
        "max_dev_pct": {
            "value": score["max_dev_pct"], "unit": "%",
            "detail": (f"{worst['experiment']} row {worst['row']} "
                       f"{worst['column']}: {worst['value']} vs "
                       f"{worst['reference']}") if worst else ""},
        "cells_off": {"value": score["cells_off"], "unit": "count",
                      "detail": f"of {score['cells']} cells"},
    }
    if trace:
        for name, value in child["trace"]["layers"].items():
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
        for name, values in child["trace"]["experiments"].items():
            metrics[f"exp.{name}.wall_s"] = {"value": values["wall_s"],
                                             "unit": "s"}
            metrics[f"exp.{name}.events"] = {"value": values["events"],
                                             "unit": "count"}
    else:
        raw = [sum(record["wall_s"] for record in records.values())
               for records in child["passes"]]
        scaled = [calibrate.scaled(wall, kernel)
                  for wall, kernel in zip(raw, child["pass_kernel_s"])]
        metrics["wall_s"] = {
            "value": statistics.median(scaled), "unit": "s",
            "passes": scaled, "unscaled": raw,
            "kernel_s": child["pass_kernel_s"],
            "detail": f"median of {len(raw)} passes; unscaled "
                      f"{statistics.median(raw):.4g} s"}
        metrics["setup_s"] = {
            "value": statistics.median(setup_scaled), "unit": "s",
            "spawns": setup_scaled, "unscaled": setup_raw,
            "detail": f"median of {len(setup_raw)} spawns; unscaled "
                      f"{statistics.median(setup_raw):.4g} s"}
        metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"],
                                  "unit": "MB"}
    return {"correct": not notes, "attempted": ops["attempted"],
            "failed": failed, "notes": notes, "metrics": metrics,
            "fidelity": definition["fidelity"], "tiers": child["tiers"],
            "orders": child["orders"], "passes": len(child["passes"]),
            "profiled_total_s": (child["trace"]["profiled_total_s"]
                                 if trace else None)}


def _layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


# --------------------------------------------------------------------------
# Provenance and output
# --------------------------------------------------------------------------

def _git() -> Dict:
    """Commit and dirty flag; unknown outside a git checkout (the search
    stops at the repository root rather than walking up)."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _print_metrics(workload: str, metrics: Dict) -> None:
    for name, metric in metrics.items():
        if name == "fail_frac":  # printed as k/n
            print(f"{workload}.fail_frac {metric['detail']}")
            continue
        tail = f" ({metric['detail']})" if metric.get("detail") else ""
        print(f"{workload}.{name} {_format(metric['value'])} "
              f"{metric['unit']}{tail}")


def run(workloads: Sequence[str], seed: int, seconds: float, trace: bool,
        out_dir: Path) -> int:
    benchmark = load_benchmark()
    contract = benchmark["per_layer" if trace else "end_to_end"]
    out_dir.mkdir(parents=True, exist_ok=True)
    order = random.Random(seed).sample(list(workloads), len(workloads))
    provenance = {
        "git": _git(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed, "seconds": seconds, "trace": trace,
        "workload_order": order}
    results = {}
    for workload in order:
        results[workload] = run_workload(workload, seed, seconds, trace,
                                         out_dir)
        _print_metrics(workload, results[workload]["metrics"])
        for note in results[workload]["notes"]:
            print(f"{workload}: {note}", file=sys.stderr)
    provenance["loadavg_end"] = os.getloadavg()
    summary: Dict = {}
    quick = [name for name in WORKLOADS if name.endswith("_quick")]
    if not trace and all(name in results for name in quick):
        summary["quick_repro_s"] = sum(
            results[name]["metrics"]["wall_s"]["value"] for name in quick)
        print(f"quick_repro_s {_format(summary['quick_repro_s'])} s "
              f"(wall_s of {' + '.join(quick)})")

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    label = order[0] if len(order) == 1 else "all"
    path = out_dir / (f"{label}{'-trace' if trace else ''}-seed{seed}-"
                      f"{stamp}-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump({"provenance": provenance, "summary": summary,
                   "workloads": results}, handle, indent=1)
    print(f"result: {path}")

    def pick(workload: str, name: str) -> Dict:
        metric = results[workload]["metrics"][name]
        return {"value": metric["value"], "unit": metric["unit"]}

    if len(order) == 1:
        metrics = {m["name"]: pick(order[0], m["name"]) for m in contract}
    else:
        metrics = {f"{w}.{m['name']}": pick(w, m["name"])
                   for w in order for m in contract}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


# --------------------------------------------------------------------------
# Reference tables
# --------------------------------------------------------------------------

def write_references(workloads: Sequence[str], out_dir: Path) -> int:
    """Run each workload once under the exact tier and commit its tables;
    for a workload on another tier, also run it once on its own tier and
    keep those tables as the baseline each cell is held to."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        definition = WORKLOADS[workload]
        count = len(definition["experiments"])
        _, _, child = spawn(_spec(workload, "measure", 0, 0, out_dir,
                                  exact_tier=True), RUN_TIMEOUT_S)
        tables = _tables(child["passes"][0])
        reference = {"tables": {
            name: {**table, "sha256": accuracy.table_sha256(table)}
            for name, table in tables.items()}}
        own = tables
        if definition["accuracy"] != "exact":
            _, _, child = spawn(_spec(workload, "measure", 0, 0, out_dir),
                                RUN_TIMEOUT_S)
            own = _tables(child["passes"][0])
        if len(tables) != count or len(own) != count:
            raise RuntimeError(f"{workload}: an experiment raised")
        score = accuracy.compare_tables(own, reference, exact=own is tables)
        if score["failures"]:
            raise RuntimeError(f"{workload}: the tier's tables do not match "
                               f"the exact tier's: {score['failures']}")
        path = REFERENCE_DIR / f"{workload}.json"
        accuracy.write_reference(path, workload, definition["fidelity"],
                                 tables, None if own is tables else own)
        print(f"{path.relative_to(ROOT)}: {len(tables)} tables, baseline "
              f"max_dev_pct {score['max_dev_pct']:.3f} "
              f"cells_off {score['cells_off']}/{score['cells']}")
    return 0


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, relative: bool) -> Dict:
    """Judge one workload/metric pair from paired runs.

    improved: the change wins >= 9/10 of the pairs (ties count for
    neither) and the medians differ, in its favour, by more than the
    parent's IQR.  worse: the change's median is worse than the parent's
    by more than ``bound`` (a share of the parent's median when
    ``relative``).  unresolved: either side's IQR is wider than the
    bound.  unchanged: otherwise.
    """
    sign = 1 if better == "lower" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = _quartiles(parent)
    c1, c3 = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    scale = abs(mp) if relative else 1.0
    gap = sign * (mc - mp)
    if pairs and wins >= 0.9 * len(pairs) and -gap > p3 - p1:
        name = "improved"
    elif gap > bound * scale:
        name = "worse"
    elif max(p3 - p1, c3 - c1) > bound * scale:
        name = "unresolved"
    else:
        name = "unchanged"
    return {"verdict": name, "parent": (p1, mp, p3), "change": (c1, mc, c3),
            "wins": wins, "pairs": len(pairs)}


def _gates() -> Dict[str, Dict]:
    gates = {m["name"]: {**m, "relative": True}
             for m in load_benchmark()["end_to_end"]}
    gates.update({name: {**gate, "relative": False}
                  for name, gate in ACCURACY_GATES.items()})
    return gates


def _collect(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        for workload, result in data["workloads"].items():
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    name, []).append(metric["value"])
    return values


def compare(parent_paths: Sequence[str], change_paths: Sequence[str]
            ) -> int:
    """Print each side's quartiles per workload and end-to-end metric,
    the pairs won and a verdict; 1 if any verdict is ``worse``."""
    parent, change = _collect(parent_paths), _collect(change_paths)
    gates = _gates()
    worse = False
    print(f"{'workload':18s} {'metric':12s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'won':>6s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, gate in gates.items():
            if name not in parent[workload] or name not in change[workload]:
                continue
            bound = gate["bound"]
            if name == "wall_s":
                bound = WORKLOADS.get(workload, {}).get("wall_bound", bound)
            result = verdict(parent[workload][name], change[workload][name],
                             gate["better"], bound, gate["relative"])
            worse |= result["verdict"] == "worse"
            sides = ["/".join(f"{v:.4g}" for v in result[side])
                     for side in ("parent", "change")]
            print(f"{workload:18s} {name:12s} {sides[0]:>30s} "
                  f"{sides[1]:>30s} {result['wins']:>3d}/{result['pairs']:<2d}"
                  f"  {result['verdict']}")
    return 1 if worse else 0


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Reproduction benchmark (see README.md); "
                    "'compare A.json ... -- B.json ...' judges two sets "
                    "of results.")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of workloads and of "
                             "experiments within them (simulator seeds "
                             "stay pinned)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure passes until this many seconds "
                             "have elapsed, at least one pass (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: one untraced and one cProfile pass per "
                             "workload, printing the per-layer metrics")
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun the workloads under the exact tier "
                             "and rewrite reference/<workload>.json")
    parser.add_argument("--out", default=str(OUT_DIR),
                        help="directory for result JSON, spans and "
                             "profiles")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if "--" not in argv:
            print("usage: bench.py compare PARENT.json... -- CHANGE.json...",
                  file=sys.stderr)
            return 2
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:])
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"bench.py: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    traceable = [name for name, definition in WORKLOADS.items()
                 if definition.get("traced") != []]
    workloads = args.workload or (traceable if args.trace
                                  else list(WORKLOADS))
    untraceable = sorted(set(workloads) - set(traceable))
    if args.trace and untraceable:
        print(f"bench.py: {', '.join(untraceable)}: no traced experiments "
              f"(see README.md)", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    seconds = (args.seconds if args.seconds is not None
               else load_benchmark()["run_seconds"])
    try:
        if args.write_reference:
            return write_references(workloads, out_dir)
        return run(workloads, args.seed, seconds, bool(args.trace), out_dir)
    except RuntimeError as error:
        print(f"bench.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's child process: one workload, one fresh interpreter.

``bench.py`` spawns this file with a JSON spec as its only argument::

    {"workload": "net_quick", "mode": "setup" | "measure" | "trace",
     "experiments": ["fig06", ...], "fidelity": "quick",
     "accuracy": null | "exact", "seed": 0, "seconds": 15,
     "spans_path": "...", "prof_path": "..."}

The child pins itself to one CPU and starts a host-speed sampler
(``calibrate.py``).  It imports the simulator, pins the sweep executor to
one inline job with no disk cache, instantiates the experiments and
prints ``READY <mean kernel seconds so far>``; the parent's clock from
spawn to that line is the workload's set-up time.  ``setup`` mode exits
there.  ``measure`` runs the experiment list as a closed loop with one
client (the next experiment starts only when the previous ``run`` +
``verify_result`` returns), pass after pass in a seed-permuted order,
until ``seconds`` have elapsed (at least one pass).  ``trace`` runs one
untraced pass, then one pass under ``cProfile`` and attributes host time
and calls to the simulator's layers.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate

#: The simulator's layers: the ``repro.<subpackage>`` each profiled
#: function's file sits in.  Everything else (the standard library,
#: this benchmark, modules directly under ``repro``) is ``other``.
LAYERS = ("sim", "workloads", "memory", "interconnect", "pcie", "nic",
          "nvme", "device", "os_model", "core", "topology", "components",
          "cluster", "metrics", "obs", "faults", "experiments", "analysis",
          "other")


def _setup(spec: Dict):
    from repro.analysis.claims import verify_result
    from repro.experiments import get_experiment, sweep
    from repro.experiments.base import configure_accuracy

    sweep.configure(jobs=1, cache_dir="")
    configure_accuracy(spec["accuracy"])
    experiments = {name: get_experiment(name)
                   for name in spec["experiments"]}
    return experiments, verify_result


def _run_one(experiment, fidelity: str, verify_result) -> Dict:
    """One closed-loop operation: run the experiment, check its claims."""
    try:
        result = experiment.run(fidelity=fidelity)
        checks = verify_result(result)
    except Exception:  # an experiment that raises is a failed op
        return {"error": traceback.format_exc(limit=5)}
    return {"table": {"headers": list(result.headers),
                      "rows": [list(row) for row in result.rows]},
            "claims": [{"claim": check.claim, "passed": check.passed,
                        "detail": check.detail} for check in checks]}


def _one_pass(experiments: Dict, fidelity: str, verify_result,
              order: List[str], spans: List[Dict], profile: bool = False,
              ) -> Tuple[Dict, Dict]:
    """Run every experiment once in ``order``; returns the per-experiment
    records and (when profiling) the per-experiment ``cProfile`` runs.

    ``spans[0]`` is the workload span; each pass adds a span under it
    and one span per experiment under the pass.
    """
    records, profiles = {}, {}
    parent = len(spans)
    spans.append({"id": parent, "name": "pass", "parent": 0,
                  "start": time.perf_counter(), "end": None})
    for name in order:
        if profile:
            # Each profiled experiment starts from empty collector
            # generations, so the points where finalizers run, and the
            # callers cProfile records for them, do not depend on what
            # ran before.
            gc.collect()
        start = time.perf_counter()
        if profile:
            # C builtins are charged to their Python caller's self time
            # (and tracing them would add a third to the overhead).
            profiles[name] = cProfile.Profile(builtins=False)
            record = profiles[name].runcall(
                _run_one, experiments[name], fidelity, verify_result)
        else:
            record = _run_one(experiments[name], fidelity, verify_result)
        end = time.perf_counter()
        record["wall_s"] = end - start
        records[name] = record
        spans.append({"id": len(spans), "name": name, "parent": parent,
                      "start": start, "end": end})
    spans[parent]["end"] = time.perf_counter()
    return records, profiles


def _layer_of(filename: str, repro_dir: str) -> str:
    if not filename.startswith(repro_dir):
        return "other"
    parts = filename[len(repro_dir):].split("/")
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else "other"


def _code_key(function) -> Tuple[str, int, str]:
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _counted_functions() -> Dict[str, Tuple[List, object]]:
    """name -> (pstats keys of the public functions whose calls it
    counts, the one caller to count them from or None for any)."""
    from repro.cluster import clients
    from repro.core.configurations import Testbed
    from repro.memory.system import MemorySystem
    from repro.sim.engine import Environment
    from repro.workloads.stream_bench import StreamThread
    stream = [_code_key(MemorySystem.cpu_stream_read),
              _code_key(MemorySystem.cpu_stream_write)]
    return {
        "sim.events": ([_code_key(Environment.step)], None),
        "core.testbeds": ([_code_key(Testbed.__init__)], None),
        # cpu_stream_* also charges the netstack's and applications'
        # copies; a STREAM chunk is a call from the antagonist's loop.
        "memory.stream_chunks": (stream, _code_key(StreamThread._body)),
        "memory.dma_ops": ([_code_key(MemorySystem.dma_read),
                            _code_key(MemorySystem.dma_write)], None),
        "cluster.client_blocks": ([_code_key(clients.generate_block)],
                                  None),
    }


def _calls(stats: pstats.Stats, keys, caller=None) -> int:
    total = 0
    for key in keys:
        if key not in stats.stats:
            continue
        entry = stats.stats[key]
        if caller is None:
            total += entry[1]
        elif caller in entry[4]:
            total += entry[4][caller][0]
    return total


def layer_metrics(stats: pstats.Stats) -> Dict[str, float]:
    """Per-layer self time and cross-layer calls, plus the named counts.

    ``layer.L.calls_in`` counts calls into a function of layer ``L``
    whose caller sits in another layer; a call with no recorded caller
    came from the benchmark loop, which is ``other``.
    """
    import repro
    repro_dir = str(Path(repro.__file__).resolve().parent) + "/"
    layer = {key: _layer_of(key[0], repro_dir) for key in stats.stats}
    metrics: Dict[str, float] = {}
    for name in LAYERS:
        metrics[f"layer.{name}.self_s"] = 0.0
        metrics[f"layer.{name}.calls_in"] = 0
    for key, (_cc, calls, tottime, _ct, callers) in stats.stats.items():
        own = layer[key]
        metrics[f"layer.{own}.self_s"] += tottime
        if callers:
            crossing = sum(entry[0] for caller, entry in callers.items()
                           if layer.get(caller, "other") != own)
        else:
            crossing = calls if own != "other" else 0
        metrics[f"layer.{own}.calls_in"] += crossing
    counted = _counted_functions()
    for name, (keys, caller) in counted.items():
        metrics[name] = _calls(stats, keys, caller)
    metrics["core.testbed_build_s"] = sum(
        stats.stats[key][3] for key in counted["core.testbeds"][0]
        if key in stats.stats)
    return metrics


def _trace(experiments, fidelity, verify_result, order, spans, spec):
    """One untraced pass, then one profiled pass."""
    untraced, _ = _one_pass(experiments, fidelity, verify_result, order,
                            spans)
    traced, profiles = _one_pass(experiments, fidelity, verify_result,
                                 order, spans, profile=True)
    untraced_wall, traced_wall = (sum(r["wall_s"] for r in records.values())
                                  for records in (untraced, traced))
    stats = pstats.Stats(*profiles.values())
    stats.dump_stats(spec["prof_path"])
    metrics = layer_metrics(stats)
    metrics["sim.events_per_s"] = metrics["sim.events"] / untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1
    step, _ = _counted_functions()["sim.events"]
    experiment_metrics = {
        name: {"wall_s": untraced[name]["wall_s"],
               "events": _calls(pstats.Stats(profiles[name]), step)}
        for name in order}
    return ([untraced, traced],
            {"layers": metrics, "experiments": experiment_metrics,
             "profiled_total_s": stats.total_tt})


def _workload(spec: Dict, experiments: Dict, verify_result,
              sampler: calibrate.Sampler) -> Dict:
    fidelity = spec["fidelity"]
    rng = random.Random(spec["seed"])
    names = list(spec["experiments"])
    spans = [{"id": 0, "name": spec["workload"], "parent": None,
              "start": time.perf_counter(), "end": None}]
    out: Dict = {"orders": []}
    if spec["mode"] == "trace":
        order = rng.sample(names, len(names))
        out["orders"].append(order)
        out["passes"], out["trace"] = _trace(
            experiments, fidelity, verify_result, order, spans, spec)
    else:
        out["passes"] = []
        start = time.perf_counter()
        while not out["passes"] or (
                time.perf_counter() - start < spec["seconds"]):
            order = rng.sample(names, len(names))
            out["orders"].append(order)
            records, _ = _one_pass(experiments, fidelity, verify_result,
                                   order, spans)
            out["passes"].append(records)
        out["pass_kernel_s"] = [sampler.kernel_s(span["start"], span["end"])
                                for span in spans if span["parent"] == 0]
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    spans[0]["end"] = time.perf_counter()
    with open(spec["spans_path"], "w") as handle:
        json.dump(spans, handle)
    return out


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    calibrate.pin_to_one_cpu()
    # Traced runs take no speed samples: the sampler thread's allocations
    # would move the collector's runs, and so the counts, between runs.
    with calibrate.Sampler(active=spec["mode"] != "trace") as sampler:
        experiments, verify_result = _setup(spec)
        tiers = {}
        for name, experiment in experiments.items():
            experiment.duration_ns(spec["fidelity"])
            tiers[name] = experiment.accuracy()
        # The parent scales its spawn-to-READY time by this host speed.
        print(f"READY {sampler.kernel_s(0.0, time.perf_counter())!r}",
              flush=True)
        if spec["mode"] == "setup":
            return 0
        out = _workload(spec, experiments, verify_result, sampler)
    out["tiers"] = tiers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

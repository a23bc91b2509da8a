"""Checks of the reproduction benchmark itself (off the tier-1 path).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest benchmarks/reprobench

The end-to-end checks run the cheapest workload (net_quick, one pass);
the whole module takes about two minutes.
"""

from __future__ import annotations

import copy
import gc
import json
import statistics
import subprocess
import sys

import pytest

import accuracy
import bench
import calibrate


def _bench(out_dir, *args):
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), "--workload",
         "net_quick", "--seconds", "0", "--out", str(out_dir), *args],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result_path = next(line.split(" ", 1)[1] for line in lines
                       if line.startswith("result: "))
    with open(bench.ROOT / result_path) as handle:
        result = json.load(handle)
    return lines, json.loads(lines[-1]), result


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _bench(tmp_path_factory.mktemp("untraced"), "--trace", "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _bench(tmp_path_factory.mktemp("traced"), "--trace", "1")


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_benchmark_metric_is_emitted_with_its_unit(
        kind, untraced, traced):
    lines, summary, _ = untraced if kind == "end_to_end" else traced
    declared = bench.load_benchmark()[kind]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
        prefix = f"net_quick.{metric['name']} "
        line = next(line for line in lines if line.startswith(prefix))
        assert line.split()[2] == metric["unit"]


def test_untraced_run_prints_the_accuracy_metrics(untraced):
    lines, _, result = untraced
    printed = {line.split()[0] for line in lines}
    for name in ("fail_frac", "max_dev_pct", "cells_off"):
        assert f"net_quick.{name}" in printed
    provenance = result["provenance"]
    assert provenance["workload_order"] == ["net_quick"]
    assert result["workloads"]["net_quick"]["orders"]
    assert set(result["workloads"]["net_quick"]["tiers"].values()) \
        == {"adaptive"}


def test_layer_self_times_sum_to_the_profiled_total(traced):
    _, _, result = traced
    workload = result["workloads"]["net_quick"]
    total = sum(metric["value"]
                for name, metric in workload["metrics"].items()
                if name.startswith("layer.") and name.endswith(".self_s"))
    assert total == pytest.approx(workload["profiled_total_s"], rel=0.02)
    assert workload["metrics"]["trace.overhead"]["value"] > 0


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    spec = {"workload": "fig08", "mode": "trace", "experiments": ["fig08"],
            "fidelity": "quick", "accuracy": None, "seed": 0, "seconds": 0,
            "spans_path": str(tmp_path / "spans.json"),
            "prof_path": str(tmp_path / "fig08.prof")}

    def counts():
        _, _, child = bench.spawn(spec, bench.RUN_TIMEOUT_S)
        return {name: value
                for name, value in child["trace"]["layers"].items()
                if isinstance(value, int)}

    first = counts()
    assert first["sim.events"] > 0 and first["memory.dma_ops"] > 0
    assert counts() == first


@pytest.fixture
def exact_reference():
    reference = accuracy.load_reference(
        bench.REFERENCE_DIR / "net_exact_normal.json")
    tables = {name: {"headers": table["headers"], "rows": table["rows"]}
              for name, table in reference["tables"].items()}
    return reference, tables


def _records(tables):
    return {name: {"table": table, "claims": [], "wall_s": 0.0}
            for name, table in tables.items()}


def test_reference_matches_itself(exact_reference):
    reference, tables = exact_reference
    score = accuracy.compare_tables(tables, reference, exact=True)
    assert score["failures"] == []
    assert score["cells_off"] == 0 and score["max_dev_pct"] == 0.0
    assert score["regressions"] == []


def test_tampered_reference_cell_raises_cells_off(exact_reference):
    reference, tables = exact_reference
    tampered = copy.deepcopy(reference)
    rows = tampered["tables"]["fig08"]["rows"]
    column = next(i for i, cell in enumerate(rows[0])
                  if isinstance(cell, float))
    rows[0][column] *= 1.10
    score = accuracy.compare_tables(tables, tampered, exact=False)
    assert score["failures"] == []
    assert score["cells_off"] == 1
    assert score["worst"]["experiment"] == "fig08"
    assert score["worst"]["row"] == 0
    assert len(score["regressions"]) == 1


def test_tampered_exact_hash_raises_fail_frac(exact_reference):
    reference, tables = exact_reference
    clean = bench._ops([_records(tables)], reference, exact=True)
    tampered = copy.deepcopy(reference)
    tampered["tables"]["fig08"]["sha256"] = "0" * 64
    ops = bench._ops([_records(tables)], tampered, exact=True)
    assert clean["failures"] == []
    assert ops["attempted"] == clean["attempted"]
    assert len(ops["failures"]) == 1 and "fig08" in ops["failures"][0]


def test_missing_or_reshaped_tables_fail(exact_reference):
    reference, tables = exact_reference
    reshaped = copy.deepcopy(tables)
    reshaped["fig06"]["rows"].pop()
    del reshaped["fig07"]["rows"][0]
    reshaped["fig07"]["headers"] = ["x"] * len(reshaped["fig07"]["headers"])
    ops = bench._ops([_records(reshaped)], {"tables": {}}, exact=True)
    assert len(ops["failures"]) == len(tables)
    ops = bench._ops([_records(reshaped)], reference, exact=True)
    assert len(ops["failures"]) == 2


def test_an_off_cell_may_not_drift_further():
    """The fast tier already misses some net_quick cells by more than the
    tolerance.  One of them moving 5 points further off leaves cells_off
    and max_dev_pct as they were, but is still a regression."""
    reference = accuracy.load_reference(bench.REFERENCE_DIR /
                                        "net_quick.json")
    tables = {name: {"headers": table["headers"],
                     "rows": copy.deepcopy(table["baseline_rows"])}
              for name, table in reference["tables"].items()}
    baseline = accuracy.compare_tables(tables, reference, exact=False)
    assert baseline["failures"] == [] and baseline["regressions"] == []
    off = [(accuracy.deviation_pct(value, expected), name, row, column)
           for name, table in reference["tables"].items()
           for row, (values, expecteds) in enumerate(
               zip(table["baseline_rows"], table["rows"]))
           for column, (value, expected) in enumerate(zip(values, expecteds))
           if isinstance(value, float) and abs(expected) >= 1
           and accuracy.deviation_pct(value, expected)
           > accuracy.CELL_TOLERANCE_PCT]
    dev, name, row, column = min(off)
    assert dev + 5 < baseline["max_dev_pct"]
    cell = tables[name]["rows"][row]
    expected = reference["tables"][name]["rows"][row][column]
    cell[column] += 0.05 * abs(expected) * (1 if cell[column] > expected
                                            else -1)
    score = accuracy.compare_tables(tables, reference, exact=False)
    assert score["cells_off"] == baseline["cells_off"]
    assert score["max_dev_pct"] == baseline["max_dev_pct"]
    assert len(score["regressions"]) == 1
    assert score["regressions"][0].startswith(f"{name} row {row} ")


def test_speed_kernel_never_runs_the_collector():
    calibrate._kernel()
    phases = []
    thresholds = gc.get_threshold()
    gc.callbacks.append(lambda phase, info: phases.append(phase))
    gc.set_threshold(1)  # any tracked allocation starts a collection
    try:
        gc.collect()
        phases.clear()
        calibrate._kernel()
        collections = len(phases)
    finally:
        # Before restoring: set_threshold's own argument tuple counts.
        gc.set_threshold(thresholds[0], thresholds[1], thresholds[2])
        gc.callbacks.pop()
    assert collections == 0


#: child.py with each experiment followed by allocation-heavy work that
#: also makes every collection slower ("burn"), or replaced by it
#: ("burn_only").
SLOWED_CHILD = '''
import json, sys
sys.path.insert(0, {here!r})
import child

spec = json.loads(sys.argv[1])
run_one = child._run_one


def slowed(experiment, fidelity, verify_result):
    record = {{"table": {{"headers": [], "rows": []}}, "claims": []}}
    if spec["slowdown"] != "burn_only":
        record = run_one(experiment, fidelity, verify_result)
    if spec["slowdown"] != "none":
        for _ in range(100):
            junk = [{{"index": i, "cell": [i]}} for i in range(20000)]
    return record


child._run_one = slowed
sys.exit(child.main(sys.argv))
'''


def test_scaled_wall_keeps_an_injected_slowdown(tmp_path):
    """Host-speed scaling must not divide out work a change adds: the
    scaled time of experiments plus a fixed slowdown is the scaled time
    of the experiments plus that of the slowdown alone."""
    script = tmp_path / "slowed_child.py"
    script.write_text(SLOWED_CHILD.format(here=str(bench.HERE)))
    walls = {"none": [], "burn": [], "burn_only": []}
    for _ in range(3):
        for slowdown, values in walls.items():
            spec = {"workload": "slowdown", "mode": "measure",
                    "experiments": ["fig09", "failover"],
                    "fidelity": "quick", "accuracy": None, "seed": 0,
                    "seconds": 0, "slowdown": slowdown,
                    "spans_path": str(tmp_path / "spans.json"),
                    "prof_path": str(tmp_path / "unused.prof")}
            _, _, child = bench.spawn(spec, bench.RUN_TIMEOUT_S, script)
            wall = sum(record["wall_s"]
                       for record in child["passes"][0].values())
            values.append(calibrate.scaled(wall, child["pass_kernel_s"][0]))
    base, slowed, burn = (statistics.median(walls[key])
                          for key in ("none", "burn", "burn_only"))
    assert burn > 0.5 * base
    assert slowed - base == pytest.approx(burn, rel=0.15)


def test_untraceable_workload_is_refused_with_trace():
    assert bench.main(["--workload", "ssd_quick", "--trace", "1"]) == 2


def _results(tmp_path, side, values, metric="wall_s", workload="net_quick"):
    paths = []
    for index, value in enumerate(values):
        path = tmp_path / f"{workload}-{side}{index}.json"
        path.write_text(json.dumps({"workloads": {workload: {
            "metrics": {metric: {"value": value, "unit": "s"}}}}}))
        paths.append(str(path))
    return paths


PARENT = [10.0, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10.03, 9.97, 10.0]


@pytest.mark.parametrize("change, expected, code", [
    ([v * 0.9 for v in PARENT], "improved", 0),
    (PARENT[::-1], "unchanged", 0),
    ([v * s for v, s in zip(PARENT, [0.5, 1.5] * 5)], "unresolved", 0),
    ([v * 1.5 for v in PARENT], "worse", 1),
], ids=["win", "noise", "wide-spread", "regression"])
def test_compare_verdicts(tmp_path, capsys, change, expected, code):
    parent_paths = _results(tmp_path, "parent", PARENT)
    change_paths = _results(tmp_path, "change", change)
    assert bench.main(["compare", *parent_paths, "--",
                       *change_paths]) == code
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("net_quick"))
    assert row.split()[-1] == expected


@pytest.mark.parametrize("workload, expected, code", [
    ("stream_quick", "worse", 1),
    ("net_quick", "unchanged", 0),
])
def test_compare_uses_each_workloads_wall_bound(tmp_path, capsys, workload,
                                                expected, code):
    """7% slower: past stream_quick's 5% bound, within net_quick's 10%."""
    parent = _results(tmp_path, "parent", PARENT, workload=workload)
    change = _results(tmp_path, "change", [v * 1.07 for v in PARENT],
                      workload=workload)
    assert bench.compare(parent, change) == code
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith(workload))
    assert row.split()[-1] == expected


def test_compare_flags_any_increase_in_failures(tmp_path):
    parent = _results(tmp_path, "parent", [0.0] * 5, metric="fail_frac")
    change = _results(tmp_path, "change", [0.01] * 5, metric="fail_frac")
    assert bench.compare(parent, parent) == 0
    assert bench.compare(parent, change) == 1

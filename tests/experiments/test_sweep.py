"""Sweep executor: cache hit/miss/invalidation, ordering, parallel mode."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import sweep
from repro.experiments.base import Experiment, configure_accuracy
from repro.experiments.runners import run_pktgen
from repro.experiments.sweep import sweep_map

CALLS = []


def point_fn(x: int, seed: int = 0) -> dict:
    """A toy point runner: records calls so tests can count executions."""
    CALLS.append((x, seed))
    return {"x": x, "seed": seed, "value": x * 10 + seed}


def tiered_fn(x: int, accuracy: str = "exact") -> dict:
    """A toy point runner that takes a tier, as the packet runners do."""
    CALLS.append((x, accuracy))
    return {"x": x, "accuracy": accuracy}


def unpicklable_result(x: int):
    return object()  # not JSON-serialisable: must silently skip the cache


@pytest.fixture(autouse=True)
def _clean():
    CALLS.clear()
    yield
    CALLS.clear()
    sweep._code_fingerprint = None
    sweep.shutdown_pool()


def test_would_parallelize_predicate(monkeypatch):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
    assert sweep.would_parallelize(sweep.MIN_PARALLEL_POINTS, jobs=4)
    # Too few points, jobs=1, or a single-CPU host all fall back.
    assert not sweep.would_parallelize(sweep.MIN_PARALLEL_POINTS - 1,
                                       jobs=4)
    assert not sweep.would_parallelize(100, jobs=1)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 1)
    assert not sweep.would_parallelize(100, jobs=4)


def test_would_parallelize_defaults_to_configured_jobs(monkeypatch):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sweep, "_jobs", 4)
    assert sweep.would_parallelize(10)
    monkeypatch.setattr(sweep, "_jobs", 1)
    assert not sweep.would_parallelize(10)


def test_results_in_submission_order():
    points = [dict(x=x) for x in (5, 1, 9, 3)]
    assert sweep_map(point_fn, points) == [point_fn(x=x)
                                           for x in (5, 1, 9, 3)]


def test_cache_hit_skips_execution(tmp_path):
    points = [dict(x=1), dict(x=2)]
    first = sweep_map(point_fn, points, cache_dir=str(tmp_path))
    assert len(CALLS) == 2
    second = sweep_map(point_fn, points, cache_dir=str(tmp_path))
    assert len(CALLS) == 2  # both points served from cache
    assert second == first


def test_cache_miss_on_param_change(tmp_path):
    sweep_map(point_fn, [dict(x=1)], cache_dir=str(tmp_path))
    sweep_map(point_fn, [dict(x=1, seed=7)], cache_dir=str(tmp_path))
    assert CALLS == [(1, 0), (1, 7)]


def test_cache_miss_on_accuracy_override(tmp_path, monkeypatch):
    """The cache key is the point, not the process tier: a function that
    takes no tier hits the cache under any --accuracy override, and
    points the override injects with different tiers miss each other."""
    monkeypatch.delenv("REPRO_ACCURACY", raising=False)
    monkeypatch.setattr(sweep, "_cache_dir", str(tmp_path))
    experiment = Experiment()
    experiment.duration_ns("normal")  # normal: exact by default
    sweep_map(point_fn, [dict(x=1)])
    experiment.sweep(tiered_fn, [dict(x=1)])
    configure_accuracy("adaptive")
    try:
        sweep_map(point_fn, [dict(x=1)])
        experiment.sweep(tiered_fn, [dict(x=1)])
        experiment.sweep(tiered_fn, [dict(x=1)])
    finally:
        configure_accuracy(None)
    experiment.sweep(tiered_fn, [dict(x=1)])
    assert CALLS == [(1, 0), (1, "exact"), (1, "adaptive")]


def test_cache_invalidated_on_code_change(tmp_path, monkeypatch):
    sweep_map(point_fn, [dict(x=1)], cache_dir=str(tmp_path))
    assert len(CALLS) == 1
    # Simulate an edit to any simulator source file: the fingerprint
    # changes, so every cached point is a miss.
    monkeypatch.setattr(sweep, "_code_fingerprint", "deadbeef" * 8)
    sweep_map(point_fn, [dict(x=1)], cache_dir=str(tmp_path))
    assert len(CALLS) == 2


def test_cache_entry_records_fn_and_params(tmp_path):
    sweep_map(point_fn, [dict(x=4, seed=2)], cache_dir=str(tmp_path))
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    envelope = json.loads(entries[0].read_text())
    assert envelope["fn"].endswith(":point_fn")
    assert envelope["params"] == {"x": 4, "seed": 2}
    assert envelope["result"]["value"] == 42


def test_non_json_result_skips_cache(tmp_path):
    out = sweep_map(unpicklable_result, [dict(x=1)],
                    cache_dir=str(tmp_path))
    assert len(out) == 1
    assert list(tmp_path.glob("*.json")) == []
    # And a re-run executes again rather than failing.
    sweep_map(unpicklable_result, [dict(x=1)], cache_dir=str(tmp_path))


def test_no_cache_dir_always_executes():
    sweep_map(point_fn, [dict(x=1)])
    sweep_map(point_fn, [dict(x=1)])
    assert len(CALLS) == 2


def test_configure_rejects_bad_jobs():
    with pytest.raises(ValueError):
        sweep.configure(jobs=0)


def test_sweep_jobs_env_is_read_when_needed_and_validated(monkeypatch):
    monkeypatch.setattr(sweep, "_jobs", None)
    for bad in ("abc", "0", "-3"):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_SWEEP_JOBS"):
            sweep.current_jobs()
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
    assert sweep.current_jobs() == 3
    monkeypatch.delenv("REPRO_SWEEP_JOBS")
    assert sweep.current_jobs() == 1
    # --jobs (configure) wins over the variable, bad or not.
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "abc")
    sweep.configure(jobs=2)
    assert sweep.current_jobs() == 2
    # A bad value does not break an import: --list still runs.
    src = Path(sweep.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    listing = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "--list"],
        env=env, capture_output=True, text=True, check=False)
    assert listing.returncode == 0, listing.stderr
    assert "fig08" in listing.stdout


def test_parallel_matches_serial():
    """Workers produce byte-identical metrics to inline execution."""
    points = [dict(config=config, packet_bytes=256,
                   duration_ns=2_000_000, seed=s)
              for s in (0, 1) for config in ("ioctopus", "remote")]
    serial = sweep_map(run_pktgen, points, jobs=1)
    parallel = sweep_map(run_pktgen, points, jobs=4)
    assert parallel == serial


def test_parallel_uses_cache(tmp_path):
    points = [dict(config="remote", packet_bytes=256,
                   duration_ns=2_000_000, seed=s) for s in (0, 1, 2)]
    first = sweep_map(run_pktgen, points, jobs=4,
                      cache_dir=str(tmp_path))
    assert len(list(tmp_path.glob("*.json"))) == 3
    second = sweep_map(run_pktgen, points, jobs=4,
                       cache_dir=str(tmp_path))
    assert second == first

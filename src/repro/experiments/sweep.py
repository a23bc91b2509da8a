"""Parallel sweep executor with an on-disk result cache.

Every paper figure is a sweep of *independent* simulation points: each
point builds its own seeded :class:`~repro.core.configurations.Testbed`,
runs it, and returns plain metrics.  That makes the figures embarrassingly
parallel, so :func:`sweep_map` fans the points across ``multiprocessing``
workers (``--jobs N`` on the CLI) and — optionally — memoises finished
points on disk keyed by a **code + parameters + default tier** hash, so
re-running a figure after an unrelated edit is a cache hit and changing
any simulator source invalidates everything.

Determinism: point functions take all their randomness from their
explicit ``seed`` parameter, so a point's metrics are identical whether it
runs inline, in a worker, or comes from the cache.  Results are returned
in submission order.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.engine import resolve_accuracy

#: Process-wide defaults, set once by the CLI (or tests) via configure().
_jobs = int(os.environ.get("REPRO_SWEEP_JOBS", "1") or 1)
_cache_dir: Optional[str] = os.environ.get("REPRO_SWEEP_CACHE") or None

_code_fingerprint: Optional[str] = None

#: Persistent worker pool, reused across sweep_map calls so a figure
#: sequence pays process startup once, not per sweep.
_pool: Optional[ProcessPoolExecutor] = None
_pool_jobs = 0

#: Below this many uncached points a process fan-out costs more (worker
#: startup, pickling, module re-import) than it saves; run them inline.
MIN_PARALLEL_POINTS = 4

#: Process-wide cache statistics (counted only when a cache dir is
#: configured): how many points were served from disk vs executed.
_cache_hits = 0
_cache_misses = 0


def cache_stats() -> Dict[str, int]:
    """Cache hits/misses since process start (or the last reset), plus
    the hit rate over all cache lookups."""
    looked_up = _cache_hits + _cache_misses
    return {"hits": _cache_hits, "misses": _cache_misses,
            "lookups": looked_up,
            "hit_rate": _cache_hits / looked_up if looked_up else 0.0}


def reset_cache_stats() -> None:
    global _cache_hits, _cache_misses
    _cache_hits = 0
    _cache_misses = 0


def would_parallelize(npoints: int, jobs: Optional[int] = None) -> bool:
    """Whether :func:`sweep_map` would fan ``npoints`` uncached points
    out to worker processes (as opposed to taking the inline serial
    fallback): more than one worker asked for, more than one CPU to run
    them on, and at least :data:`MIN_PARALLEL_POINTS` points."""
    jobs = _jobs if jobs is None else jobs
    return (jobs > 1 and (os.cpu_count() or 1) > 1
            and npoints >= MIN_PARALLEL_POINTS)


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    global _pool, _pool_jobs
    if _pool is None or _pool_jobs != jobs:
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=jobs)
        _pool_jobs = jobs
    return _pool


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (tests / interpreter exit)."""
    global _pool, _pool_jobs
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_jobs = 0


def configure(jobs: Optional[int] = None,
              cache_dir: Optional[str] = None) -> None:
    """Set process-wide sweep defaults (the CLI's --jobs/--cache-dir)."""
    global _jobs, _cache_dir
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        _jobs = jobs
    if cache_dir is not None:
        _cache_dir = cache_dir


def current_jobs() -> int:
    return _jobs


def code_fingerprint() -> str:
    """Hash of every simulator source file; part of each cache key, so
    any code change invalidates all cached points."""
    global _code_fingerprint
    if _code_fingerprint is None:
        root = Path(__file__).resolve().parents[1]  # src/repro
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def _fn_path(fn: Callable) -> str:
    return f"{fn.__module__}:{fn.__qualname__}"


def _point_key(fn_path: str, params: Dict) -> str:
    # A point that names no tier runs the process default, which
    # --accuracy and REPRO_ACCURACY set, so that default is in the key.
    payload = json.dumps({"fn": fn_path, "params": params,
                          "accuracy": resolve_accuracy("exact")},
                         sort_keys=True, default=repr)
    return hashlib.sha256(
        (code_fingerprint() + payload).encode()).hexdigest()


def _cache_load(cache_dir: str, key: str) -> Optional[Dict]:
    path = os.path.join(cache_dir, f"{key}.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _cache_store(cache_dir: str, key: str, fn_path: str, params: Dict,
                 result) -> None:
    try:
        payload = json.dumps({"fn": fn_path, "params": params,
                              "result": result}, sort_keys=True)
    except TypeError:
        return  # non-JSON result (e.g. TimeSeries): run uncached
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{key}.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(payload)
    os.replace(tmp, path)  # atomic: concurrent workers race benignly


def _invoke(fn_path: str, params: Dict):
    """Worker-side entry: resolve the dotted function path and call it.

    Shipping the path instead of the function object keeps the submission
    picklable under every multiprocessing start method.
    """
    import importlib
    module_name, qualname = fn_path.split(":", 1)
    fn = importlib.import_module(module_name)
    for part in qualname.split("."):
        fn = getattr(fn, part)
    return fn(**params)


def sweep_map(fn: Callable, points: Sequence[Dict],
              jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              parallel_when: Optional[Callable[[int, int], bool]] = None,
              ) -> List:
    """Run ``fn(**kwargs)`` for every kwargs dict in ``points``.

    Results come back in submission order.  ``fn`` must be a module-level
    function (picklable by path) whose kwargs are JSON-representable —
    true of every experiment point runner.

    ``parallel_when(npoints, jobs)`` overrides the fan-out predicate
    (default :func:`would_parallelize`).  The fleet executor passes its
    own: a fleet point is a whole server simulation, heavy enough that
    process fan-out is worth it whenever more than one worker is asked
    for — including on hosts where the figure sweeps would fall back to
    serial.
    """
    global _cache_hits, _cache_misses
    jobs = _jobs if jobs is None else jobs
    cache_dir = _cache_dir if cache_dir is None else cache_dir
    fn_path = _fn_path(fn)
    results: List = [None] * len(points)
    pending = []  # (index, params, cache key or None)
    for index, params in enumerate(points):
        key = None
        if cache_dir:
            key = _point_key(fn_path, params)
            hit = _cache_load(cache_dir, key)
            if hit is not None:
                _cache_hits += 1
                results[index] = hit["result"]
                continue
            _cache_misses += 1
        pending.append((index, params, key))

    # Fan out only when it can actually win: multiple workers requested,
    # more than one CPU to run them on, and enough uncached points to
    # amortise worker startup.  Everything else runs inline — on a
    # single-CPU host the pool only adds overhead (measured 0.75x).
    should_parallelize = parallel_when or would_parallelize
    if should_parallelize(len(pending), jobs):
        pool = _get_pool(jobs)
        futures = [(index, params, key,
                    pool.submit(_invoke, fn_path, params))
                   for index, params, key in pending]
        for index, params, key, future in futures:
            value = future.result()
            results[index] = value
            if key:
                _cache_store(cache_dir, key, fn_path, params, value)
    else:
        for index, params, key in pending:
            value = fn(**params)
            results[index] = value
            if key:
                _cache_store(cache_dir, key, fn_path, params, value)
    return results

#!/usr/bin/env python3
"""Reachability probe: list the ``src/repro`` functions no user-facing
run enters.

Runs every user-facing path in this one process, with the sweep inline
and every ``REPRO_*`` variable cleared:

* all registered experiments at quick fidelity, with their claim checks
  (``ioctopus-repro --all --fidelity quick --report``);
* the benchmark's ``net_exact_normal`` experiments at normal fidelity on
  the exact tier;
* the ``obs``, ``obs blame``, ``obs diff``, ``ablate`` and ``fuzz``
  commands CI runs (with ``--jobs 1`` where CI fans out);
* the six examples and ``tools/fleet_smoke.py``.

A ``sys.settrace`` hook records the code object of every call and
returns None, so no line is traced.  The report names, by module, each
function defined under ``src/repro`` that no path entered (the
outermost one, when a whole nest was skipped), with its line span, and
ends with the totals.  Every file a path writes goes to a temporary
directory.  It takes under 10 minutes on a 2-vCPU host.

Usage::

    python tools/reach.py > reach.txt
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"
sys.path.insert(0, str(SRC))


def _net_exact_normal():
    """The experiments of the benchmark's ``net_exact_normal`` workload."""
    path = REPO / "benchmarks" / "reprobench" / "bench.py"
    spec = importlib.util.spec_from_file_location("reprobench_bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return list(bench.WORKLOADS["net_exact_normal"]["experiments"])


def _paths(tmp: Path):
    """(label, callable) for every path, in run order."""
    from repro.experiments.cli import main as cli

    def command(*argv):
        return lambda: cli(list(argv))

    def script(path, *argv):
        def run():
            saved = sys.argv
            sys.argv = [str(path), *argv]
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = saved
        return run

    net_exact = _net_exact_normal()
    cache = str(tmp / "ablate-cache")
    mutation = str(tmp / "mutation-corpus")
    paths = [
        ("--all --fidelity quick --report",
         command("--all", "--fidelity", "quick", "--report")),
        ("net_exact_normal (normal, exact)",
         command(*net_exact, "--fidelity", "normal", "--accuracy",
                 "exact")),
        ("obs rr 1 KB --trace --prom",
         command("obs", "--workload", "rr", "--message-bytes", "1024",
                 "--trace", str(tmp / "trace.json"),
                 "--prom", str(tmp / "metrics.prom"))),
        ("obs blame rr remote/remote",
         command("obs", "blame", "--workload", "rr", "--config", "remote",
                 "--client-config", "remote", "--fidelity", "quick",
                 "--out", str(tmp / "blame.json"))),
        ("obs diff pktgen ioctopus/remote",
         command("obs", "diff", "--workload", "pktgen", "--a-config",
                 "ioctopus", "--b-config", "remote", "--fidelity", "quick",
                 "--out", str(tmp / "diff.json"))),
        ("ablate fig08 --json (cold cache)",
         command("ablate", "--figure", "fig08", "--fidelity", "quick",
                 "--jobs", "1", "--cache-dir", cache, "--json",
                 "--out", str(tmp / "ablate.json"))),
        ("ablate fig08 (warm cache)",
         command("ablate", "--figure", "fig08", "--fidelity", "quick",
                 "--cache-dir", cache)),
        ("ablate fig08 --preset remote",
         command("ablate", "--figure", "fig08", "--fidelity", "quick",
                 "--preset", "remote", "--components", "ddio", "--json")),
        ("fuzz 25 cases", command("fuzz", "--seed", "0", "--cases", "25")),
        ("fuzz --replay-corpus tests/corpus",
         command("fuzz", "--replay-corpus",
                 str(REPO / "tests" / "corpus"))),
        ("fuzz --mutate",
         command("fuzz", "--seed", "0", "--cases", "25", "--mutate",
                 "--corpus-dir", mutation)),
        ("fuzz --replay-corpus (mutation corpus)",
         command("fuzz", "--replay-corpus", mutation)),
        ("fuzz 10 cases --fleet-every 2",
         command("fuzz", "--seed", "0", "--cases", "10", "--fleet-every",
                 "2")),
    ]
    for example in ("quickstart", "thread_migration", "keyvalue_colocation",
                    "nvme_nudma", "pf_failover"):
        paths.append((f"examples/{example}.py",
                      script(REPO / "examples" / f"{example}.py")))
    paths.append(("examples/trace_export.py",
                  script(REPO / "examples" / "trace_export.py",
                         str(tmp / "trace-export.json"))))
    smoke = REPO / "tools" / "fleet_smoke.py"
    paths.append(("tools/fleet_smoke.py --servers 4 --jobs 1",
                  script(smoke, "--servers", "4", "--jobs", "1")))
    paths.append(("tools/fleet_smoke.py --print-fingerprint",
                  script(smoke, "--print-fingerprint")))
    return paths


def _reset() -> None:
    """Undo the process-wide settings a CLI call leaves behind."""
    from repro.experiments import sweep
    from repro.experiments.base import configure_accuracy
    from repro.experiments.fig16_fleet import configure_fleet
    sweep.configure(jobs=1, cache_dir="")
    configure_accuracy(None)
    configure_fleet(None, None)


def _run_paths(tmp: Path) -> set:
    """Run every path under the call hook; return the entered code
    objects' ``(file, first line, name)`` keys."""
    entered = set()
    add = entered.add

    def hook(frame, event, arg):
        add(frame.f_code)

    # Traced from the first import on: registration runs at import.
    sys.settrace(hook)
    paths = _paths(tmp)
    sys.settrace(None)
    with open(tmp / "output.txt", "w") as log:
        for label, run in paths:
            _reset()
            start = time.perf_counter()
            status = 0
            sys.settrace(hook)
            try:
                with contextlib.redirect_stdout(log), \
                        contextlib.redirect_stderr(log):
                    status = run() or 0
            except SystemExit as stop:
                status = stop.code or 0
            finally:
                sys.settrace(None)
            print(f"{time.perf_counter() - start:7.1f} s  exit {status}  "
                  f"{label}", file=sys.stderr)
    _reset()
    return {(code.co_filename, code.co_firstlineno, code.co_name)
            for code in entered}


def _functions(code, prefix=""):
    """Yield (code, qualname) for every function nested in ``code``."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name.startswith("<"):
            continue
        qualname = f"{prefix}{const.co_name}"
        if const.co_flags & inspect.CO_NEWLOCALS:
            yield const, qualname
        else:  # a class body: its methods are functions
            yield from _functions(const, f"{qualname}.")


def _last_line(code) -> int:
    last = max((line for _, _, line in code.co_lines() if line),
               default=code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            last = max(last, _last_line(const))
    return last


def _unentered(code, prefix, filename, entered):
    """Outermost functions under ``code`` that no path entered."""
    for function, qualname in _functions(code, prefix):
        key = (filename, function.co_firstlineno, function.co_name)
        if key not in entered:
            yield function.co_firstlineno, _last_line(function), qualname
        else:
            yield from _unentered(function, f"{qualname}.", filename,
                                  entered)


def main() -> int:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        entered = _run_paths(Path(tmp))
    functions = lines = modules = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        module = compile(path.read_text(), filename, "exec")
        rows = sorted(_unentered(module, "", filename, entered))
        if not rows:
            continue
        modules += 1
        print(path.relative_to(REPO))
        for first, last, qualname in rows:
            functions += 1
            lines += last - first + 1
            print(f"  {first:>4}-{last:<4}  {qualname}")
    print(f"{functions} functions ({lines} lines) in {modules} modules "
          f"that no path entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())

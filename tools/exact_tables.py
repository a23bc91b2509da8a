#!/usr/bin/env python3
"""The quick exact-tier tables are byte-identical to the reference.

The benchmark's ``net_quick``, ``stream_quick`` and ``ssd_quick``
workloads hold their cells only within a slack of their baseline rows.
This check runs the same experiments at quick fidelity under the exact
tier and compares each table's sha256 with the one the workload's
reference file records, so a change to the packet path or the STREAM
chunk path that moves any exact value fails here.

Usage::

    python tools/exact_tables.py

Prints one line per table and exits 1 if any sha256 differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "benchmarks" / "reprobench"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

from accuracy import table_sha256  # noqa: E402
from repro.experiments import get_experiment  # noqa: E402
from repro.experiments.base import configure_accuracy  # noqa: E402

#: Workloads whose reference tables this checks.  Each runs every table
#: its reference file records, in that file's order: the 16 packet-path
#: tables of ``net_quick``, the five STREAM-loaded tables of
#: ``stream_quick`` and ``ssd_quick``'s failover_ssd.
WORKLOADS = ("net_quick", "stream_quick", "ssd_quick")


def main() -> int:
    configure_accuracy("exact")
    mismatched = 0
    for workload in WORKLOADS:
        reference = json.loads(
            (BENCH / "reference" / f"{workload}.json").read_text())
        for name, recorded in reference["tables"].items():
            result = get_experiment(name).run(fidelity="quick")
            table = {"headers": list(result.headers),
                     "rows": [list(row) for row in result.rows]}
            ok = table_sha256(table) == recorded["sha256"]
            mismatched += not ok
            print(f"{workload} {name}: "
                  f"{'match' if ok else 'sha256 differs'}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference tables and the accuracy check against them.

A reference file (``reference/<workload>.json``) holds every table of a
workload's experiments as run under the ``exact`` tier at the workload's
fidelity, each with the sha256 of its canonical JSON.  For a workload
that runs another tier, each table also keeps that tier's rows as they
were when the file was written (``baseline_rows``): the accuracy every
cell is held to.  :func:`compare_tables` scores a run against it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

#: A numeric cell more than this far off its reference counts toward
#: ``cells_off`` (the fast tiers' documented tolerance).
CELL_TOLERANCE_PCT = 2.0

#: ``correct`` requires every cell's deviation to stay within this many
#: percentage points of the same cell's baseline deviation.
MAX_DEV_SLACK_PCT = 0.5


def table_sha256(table: Dict) -> str:
    """sha256 of the table's canonical JSON (floats in shortest repr)."""
    payload = json.dumps({"headers": table["headers"],
                          "rows": table["rows"]},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def deviation_pct(value, reference) -> float:
    """Relative deviation in percent.  The denominator never drops below
    the cell's printed precision (0.01 for floats, which tables print
    with two decimals; 1 for integers), so a reference of 0 is compared
    absolutely at that precision."""
    unit = 1 if isinstance(reference, int) and isinstance(value, int) \
        else 0.01
    return 100.0 * abs(value - reference) / max(abs(reference), unit)


def compare_tables(tables: Dict[str, Dict], reference: Dict,
                   exact: bool) -> Dict:
    """Score measured tables against a reference.

    Every table is one comparison op.  It fails when the reference table
    is missing, the headers, row count or any non-numeric cell differ,
    or — when ``exact`` — its sha256 differs.  Numeric cells of tables
    with matching shape give ``max_dev_pct`` (with the worst cell named,
    if any deviates) and ``cells_off``.  ``regressions`` names each cell
    that is now further off than its baseline allows: by more than
    MAX_DEV_SLACK_PCT over its baseline deviation, or beyond
    CELL_TOLERANCE_PCT when its baseline was within it.  A table without
    ``baseline_rows`` has the reference itself as its baseline.
    """
    failures: List[str] = []
    regressions: List[str] = []
    cells = cells_off = 0
    worst: Optional[Dict] = None
    for name, table in tables.items():
        ref = reference["tables"].get(name)
        if ref is None:
            failures.append(f"{name}: no reference table")
            continue
        if (table["headers"] != ref["headers"]
                or len(table["rows"]) != len(ref["rows"])):
            failures.append(f"{name}: headers or row count differ")
            continue
        if exact and table_sha256(table) != ref["sha256"]:
            failures.append(f"{name}: sha256 differs from the reference")
        labels_ok = True
        baseline_rows = ref.get("baseline_rows", ref["rows"])
        for index, (row, ref_row, base_row) in enumerate(
                zip(table["rows"], ref["rows"], baseline_rows)):
            for header, value, expected, base in zip(
                    table["headers"], row, ref_row, base_row):
                if not (_numeric(value) and _numeric(expected)):
                    labels_ok &= value == expected
                    continue
                cells += 1
                dev = deviation_pct(value, expected)
                base_dev = deviation_pct(base, expected)
                off = dev > CELL_TOLERANCE_PCT
                cells_off += off
                if dev > base_dev + MAX_DEV_SLACK_PCT or (
                        off and base_dev <= CELL_TOLERANCE_PCT):
                    regressions.append(
                        f"{name} row {index} {header}: {value} vs "
                        f"{expected} is {dev:.3f}% off, baseline {base} "
                        f"was {base_dev:.3f}%")
                if dev > (worst["dev_pct"] if worst else 0.0):
                    worst = {"dev_pct": dev, "experiment": name,
                             "row": index, "column": header,
                             "value": value, "reference": expected}
        if not labels_ok:
            failures.append(f"{name}: non-numeric cells differ")
    return {"failures": failures, "regressions": regressions,
            "cells": cells, "cells_off": cells_off,
            "max_dev_pct": worst["dev_pct"] if worst else 0.0,
            "worst": worst}


def load_reference(path) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def write_reference(path, workload: str, fidelity: str,
                    tables: Dict[str, Dict],
                    baseline: Optional[Dict[str, Dict]]) -> None:
    """Write a reference file, one table row per line; ``baseline`` holds
    the workload tier's tables, or is None when that tier is exact."""
    lines = ["{",
             f' "workload": {json.dumps(workload)},',
             f' "fidelity": {json.dumps(fidelity)},',
             ' "tier": "exact",',
             ' "tables": {']

    def rows(key: str, values: List) -> str:
        body = ",\n".join(f"    {json.dumps(row)}" for row in values)
        return f'   "{key}": [\n{body}\n   ]'

    for index, (name, table) in enumerate(sorted(tables.items())):
        comma = "," if index < len(tables) - 1 else ""
        lines += [f"  {json.dumps(name)}: {{",
                  f'   "sha256": "{table_sha256(table)}",',
                  f'   "headers": {json.dumps(table["headers"])},']
        if baseline is None:
            lines.append(rows("rows", table["rows"]))
        else:
            lines += [rows("rows", table["rows"]) + ",",
                      rows("baseline_rows", baseline[name]["rows"])]
        lines.append(f"  }}{comma}")
    lines += [" }", "}"]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")

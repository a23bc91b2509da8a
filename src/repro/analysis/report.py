"""Markdown report generation: results + claim verdicts in one document.

``render_report`` turns a set of experiment results into the same kind of
document as ``EXPERIMENTS.md`` — per-experiment tables plus PASS/FAIL
verdicts for every registered paper claim — so a full reproduction run
can be archived as a single artifact::

    from repro.analysis import run_report
    print(run_report(fidelity="quick"))
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.claims import verify_result
from repro.experiments.base import (
    ExperimentResult,
    all_experiment_names,
    get_experiment,
)


def _markdown_table(result: ExperimentResult) -> str:
    header = "| " + " | ".join(result.headers) + " |"
    rule = "|" + "|".join("---" for _ in result.headers) + "|"
    lines = [header, rule]
    for row in result.rows:
        cells = [f"{v:.2f}" if isinstance(v, float) else str(v)
                 for v in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render_result(result: ExperimentResult) -> str:
    """One experiment as a markdown section with claim verdicts."""
    experiment = get_experiment(result.experiment)
    parts = [f"## {result.experiment} — {result.paper_ref}", "",
             experiment.description, "", _markdown_table(result)]
    if result.notes:
        parts += ["", f"*{result.notes}*"]
    checks = verify_result(result)
    if checks:
        parts += ["", "Claims:", ""]
        for check in checks:
            mark = "✅" if check.passed else "❌"
            detail = f" — {check.detail}" if check.detail else ""
            parts.append(f"- {mark} {check.claim}{detail}")
    return "\n".join(parts)


def render_report(results: Iterable[ExperimentResult]) -> str:
    """A complete markdown report for a set of results."""
    results = list(results)
    sections = ["# IOctopus reproduction report", ""]
    passed = failed = 0
    bodies = []
    for result in results:
        bodies.append(render_result(result))
        for check in verify_result(result):
            if check.passed:
                passed += 1
            else:
                failed += 1
    sections.append(f"{len(results)} experiments; claims: "
                    f"{passed} passed, {failed} failed.")
    sections.append("")
    sections.append("\n\n".join(bodies))
    return "\n".join(sections)


def run_report(names: Optional[List[str]] = None,
               fidelity: str = "quick") -> str:
    """Run experiments (all by default) and render the report."""
    names = names if names is not None else all_experiment_names()
    results = [get_experiment(name).run(fidelity=fidelity)
               for name in names]
    return render_report(results)

"""Shape verification: the paper's claims as checkable predicates."""

from repro.analysis.claims import (
    ClaimCheck,
    claim,
    claims_for,
    verify_result,
)
from repro.analysis.report import render_report, render_result, run_report

__all__ = [
    "ClaimCheck",
    "claim",
    "claims_for",
    "render_report",
    "render_result",
    "run_report",
    "verify_result",
]

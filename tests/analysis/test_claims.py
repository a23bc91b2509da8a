"""Tests for the claim-verification layer."""

import pytest

from repro.analysis import ClaimCheck, claims_for, verify_result
from repro.experiments.base import ExperimentResult


def test_every_simulated_experiment_has_claims():
    for name in ("fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
                 "fig12", "fig13", "fig14", "fig15", "sec24", "sec511"):
        assert claims_for(name), f"{name} has no registered claims"


def test_verify_result_checks_all_claims_for_experiment(results):
    result = results("fig08")
    checks = verify_result(result)
    assert len(checks) == len(claims_for("fig08"))
    assert all(isinstance(c, ClaimCheck) for c in checks)
    assert all(c.passed for c in checks)


def test_verify_result_detects_violations():
    # A fabricated fig08 result where remote beats local.
    result = ExperimentResult(
        "fig08", "Figure 8",
        ["pkt_bytes", "ioct_gbps", "remote_gbps", "ratio", "ioct_mpps",
         "remote_mpps", "ioct_membw_gbps", "remote_membw_gbps"])
    result.add(1500, 10.0, 20.0, 0.5, 1.0, 2.0, 0.0, 10.0)
    checks = verify_result(result)
    assert any(not c.passed for c in checks)


def test_claimcheck_str_mentions_outcome():
    check = ClaimCheck("fig08", "a claim", True, "42")
    assert "PASS" in str(check) and "fig08" in str(check)
    assert "FAIL" in str(ClaimCheck("x", "y", False))


def test_verify_result_for_unclaimed_experiment_is_empty():
    result = ExperimentResult("fig02", "Figure 2", ["year"])
    # fig02 has no registered claims (pure data model).
    assert verify_result(result) == []


def test_fig12_claim_passes_on_real_run(results):
    result = results("fig12")
    assert all(c.passed for c in verify_result(result))


def test_render_result_includes_table_and_verdicts(results):
    from repro.analysis import render_result
    result = results("fig08")
    text = render_result(result)
    assert "fig08" in text
    assert "| pkt_bytes |" in text
    assert "✅" in text


def test_run_report_over_subset():
    from repro.analysis import run_report
    text = run_report(names=["fig02", "fig08"], fidelity="quick")
    assert "# IOctopus reproduction report" in text
    assert "2 experiments" in text
    assert "fig02" in text and "fig08" in text

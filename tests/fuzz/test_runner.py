"""The case runner: determinism, crash tolerance, agreement gating."""

from repro.fuzz.case import FuzzCase
from repro.fuzz.runner import (MIN_AGREEMENT_RECORDS, _check_agreement,
                               execute, fingerprint, run_case)


def make_case(**overrides):
    data = {
        "case_id": "runner-test", "seed": 9, "config": "ioctopus",
        "workload": "tcp_stream",
        "params": {"message_bytes": 4096, "direction": "rx"},
        "duration_ns": 1_000_000, "faults": [],
    }
    data.update(overrides)
    return FuzzCase.from_dict(data)


def crash_case():
    # Standard firmware, serving PF dies mid-run: the workload's next
    # DMA raises DeviceGoneError, which the runner reports as a crash.
    return make_case(config="local", faults=[
        {"target": "nic", "kind": "pf_down", "at_ns": 200_000,
         "duration_ns": 100_000, "pf_id": 0}])


def test_execute_is_bit_identical():
    case = make_case()
    assert fingerprint(execute(case)) == fingerprint(execute(case))


def test_observation_shape():
    obs = execute(make_case())
    for key in ("outcome", "wire", "server", "client", "drivers",
                "faults", "trace", "metrics", "metrics_records", "nvme"):
        assert key in obs
    assert obs["outcome"] == "ok"
    assert obs["nvme"] is None            # tcp_stream has no SSD side
    assert obs["metrics"]["stream_gbps"] > 0
    assert obs["metrics_records"]["stream_gbps"] > 0


def test_run_case_clean():
    result = run_case(make_case().to_dict())
    assert result["outcome"] == "ok"
    assert result["violations"] == []
    assert result["fingerprint"]


def test_run_case_tolerates_legitimate_crash():
    result = run_case(crash_case().to_dict())
    assert result["outcome"] == "crashed"
    assert "DeviceGoneError" in result["error"]
    # A crash on standard firmware is the *expected* contrast with the
    # octoNIC, not an invariant violation — and it still replays.
    assert result["violations"] == []


def test_crash_is_deterministic_too():
    a = execute(crash_case())
    b = execute(crash_case())
    assert a["outcome"] == "crashed"
    assert fingerprint(a) == fingerprint(b)


# ---------------------------------------------------- agreement gating

def agreement_obs(**overrides):
    obs = {
        "outcome": "ok",
        "server": {"rx_bytes": 10_000_000, "tx_bytes": 5_000_000},
        "nvme": None,
        "metrics": {"stream_gbps": 10.0},
        "metrics_records": {"stream_gbps": MIN_AGREEMENT_RECORDS},
    }
    for key, value in overrides.items():
        if isinstance(obs.get(key), dict) and isinstance(value, dict):
            obs[key] = {**obs[key], **value}
        else:
            obs[key] = value
    return obs


def test_agreement_passes_when_close():
    exact = agreement_obs()
    adaptive = agreement_obs(metrics={"stream_gbps": 10.5})
    assert _check_agreement(exact, adaptive, rel=0.1) == []


def test_agreement_trips_on_metric_divergence():
    exact = agreement_obs()
    adaptive = agreement_obs(metrics={"stream_gbps": 15.0})
    violations = _check_agreement(exact, adaptive, rel=0.1)
    assert violations and "stream_gbps" in violations[0]["detail"]


def test_agreement_skips_underfilled_meters():
    # With too few meter records the two modes' window alignment
    # quantises differently by design — the rate is not comparable.
    exact = agreement_obs(
        metrics_records={"stream_gbps": MIN_AGREEMENT_RECORDS - 1})
    adaptive = agreement_obs(metrics={"stream_gbps": 15.0})
    assert _check_agreement(exact, adaptive, rel=0.1) == []


def test_agreement_still_holds_ledgers_when_meters_skip():
    exact = agreement_obs(
        metrics_records={"stream_gbps": MIN_AGREEMENT_RECORDS - 1})
    adaptive = agreement_obs(server={"rx_bytes": 7_000_000},
                             metrics={"stream_gbps": 15.0})
    violations = _check_agreement(exact, adaptive, rel=0.1)
    assert violations and "rx bytes" in violations[0]["detail"]


def test_agreement_allows_end_of_run_train_truncation():
    # The horizon can cut adaptive mode one coalesced train short.
    exact = agreement_obs()
    adaptive = agreement_obs(
        server={"rx_bytes": 10_000_000 - 64 * 1024})
    assert _check_agreement(exact, adaptive, rel=0.1) == []


def test_agreement_trips_on_outcome_mismatch():
    exact = agreement_obs()
    adaptive = agreement_obs(outcome="crashed")
    violations = _check_agreement(exact, adaptive, rel=0.1)
    assert violations and "outcome differs" in violations[0]["detail"]


def test_agreement_invariant_end_to_end_on_real_case():
    # A perf-only fault keeps the case eligible for the adaptive
    # comparison; the full run_case path must come back clean.
    case = make_case(faults=[
        {"target": "nic", "kind": "wire_loss", "at_ns": 100_000,
         "duration_ns": 200_000, "loss_probability": 0.01,
         "corrupt_probability": 0.001}])
    result = run_case(case.to_dict())
    assert result["violations"] == []

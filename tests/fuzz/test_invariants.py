"""The invariant catalogue: passes on real runs, trips on tampered ones."""

import copy

import pytest

from repro.fuzz.case import FuzzCase
from repro.fuzz.invariants import (ALL_INVARIANTS, DEFAULT_INVARIANTS,
                                   INVARIANTS, check, needs_adaptive_run,
                                   validate_names)
from repro.fuzz.runner import execute


def make_case(**overrides):
    data = {
        "case_id": "inv-test", "seed": 42, "config": "ioctopus",
        "workload": "tcp_stream",
        "params": {"message_bytes": 4096, "direction": "rx"},
        "duration_ns": 1_000_000, "faults": [],
    }
    data.update(overrides)
    return FuzzCase.from_dict(data)


@pytest.fixture(scope="module")
def clean_run():
    case = make_case()
    return case.to_dict(), execute(case)


def test_validate_names_rejects_unknown():
    with pytest.raises(ValueError):
        validate_names(["conservation", "vibes"])
    validate_names(list(ALL_INVARIANTS))


def test_clean_run_satisfies_every_checker(clean_run):
    case, obs = clean_run
    assert obs["outcome"] == "ok"
    assert check(case, obs, list(INVARIANTS)) == []


def test_conservation_trips_on_ledger_tamper(clean_run):
    case, obs = clean_run
    bad = copy.deepcopy(obs)
    bad["server"]["rx_bytes"] += 1
    violations = check(case, bad, ["conservation"])
    assert violations
    assert all(v["invariant"] == "conservation" for v in violations)


def test_conservation_trips_on_wire_identity_tamper(clean_run):
    case, obs = clean_run
    bad = copy.deepcopy(obs)
    bad["wire"]["retransmits"] += 3
    assert check(case, bad, ["conservation"])


def test_drained_trips_on_leaked_entries(clean_run):
    case, obs = clean_run
    bad = copy.deepcopy(obs)
    bad["server"]["rx_outstanding"] = 5
    violations = check(case, bad, ["drained"])
    assert violations and violations[0]["invariant"] == "drained"


def test_no_reorder_trips_on_nonzero_residual(clean_run):
    case, obs = clean_run
    bad = copy.deepcopy(obs)
    bad["trace"]["residuals"] = [0, 7, 0]
    violations = check(case, bad, ["no_reorder"])
    assert violations and "7" in violations[0]["detail"]


def test_obs_consistency_trips_on_counter_drift(clean_run):
    case, obs = clean_run
    bad = copy.deepcopy(obs)
    bad["drivers"]["failovers"] += 1
    violations = check(case, bad, ["obs_consistency"])
    assert violations and "failover" in violations[0]["detail"]


def test_crash_skips_end_state_checks(clean_run):
    case, obs = clean_run
    crashed = copy.deepcopy(obs)
    crashed["outcome"] = "crashed"
    crashed["server"]["rx_bytes"] += 999   # would trip when not crashed
    crashed["server"]["rx_outstanding"] = 9
    assert check(case, crashed, ["conservation", "drained"]) == []


def test_mutation_smoke_fires_on_pf_fault():
    case = make_case(faults=[{"target": "nic", "kind": "pf_down",
                              "at_ns": 100_000, "duration_ns": 50_000,
                              "pf_id": 1}])
    obs = execute(case)
    assert obs["outcome"] == "ok"   # octoNIC fails over, no crash
    assert check(case.to_dict(), obs, ["mutation_smoke"])
    # The default selection never includes the deliberately-broken one.
    assert "mutation_smoke" not in DEFAULT_INVARIANTS


def test_needs_adaptive_run_gates_on_fault_kinds(clean_run):
    case, obs = clean_run
    assert needs_adaptive_run(case, obs)

    perf_only = dict(case, faults=[
        {"target": "nic", "kind": "wire_loss", "at_ns": 0,
         "duration_ns": 1000, "loss_probability": 0.01,
         "corrupt_probability": 0.0}])
    assert needs_adaptive_run(perf_only, obs)

    topology = dict(case, faults=[
        {"target": "nic", "kind": "pf_down", "at_ns": 0,
         "duration_ns": 1000, "pf_id": 0}])
    assert not needs_adaptive_run(topology, obs)

    crashed = dict(obs, outcome="crashed")
    assert not needs_adaptive_run(case, crashed)


#: A perf-only fault, so only the workload keeps these cases from the
#: adaptive replay.
WIRE_LOSS = {"target": "nic", "kind": "wire_loss", "at_ns": 100_000,
             "duration_ns": 200_000, "loss_probability": 0.01,
             "corrupt_probability": 0.0}


@pytest.mark.parametrize("workload, params", [
    ("tcp_rr", {"message_bytes": 256}),
    ("memcached", {"value_bytes": 1024, "set_fraction": 0.5,
                   "workers": 2}),
    ("fio", {"block_bytes": 32 * 1024, "iodepth": 8, "threads": 1}),
])
def test_workloads_without_trains_skip_the_adaptive_replay(workload,
                                                           params):
    case = make_case(workload=workload, params=params, faults=[WIRE_LOSS])
    exact = execute(case, "exact")
    assert exact["outcome"] == "ok"
    assert not needs_adaptive_run(case.to_dict(), exact)
    # The skip is sound: the tier reaches nothing these cases build, so
    # the replay would observe exactly what the exact run did.
    adaptive = execute(case, "adaptive")
    assert adaptive["accuracy"] == "adaptive"
    assert dict(adaptive, accuracy="exact") == exact

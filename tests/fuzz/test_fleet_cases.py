"""Fleet topology cases in the fuzzer: grammar, stream isolation,
execution, shrinking, campaign interleave."""

import pytest

from repro.components import PRESETS
from repro.fuzz.case import (FLEET_CONNECTIONS, FLEET_DURATIONS_NS,
                             FLEET_SERVERS, FuzzCase, generate_case,
                             generate_fleet_case)
from repro.fuzz.harness import fuzz
from repro.fuzz.runner import run_case, run_fleet_case
from repro.fuzz.shrink import candidates


def test_fleet_generation_is_deterministic():
    for index in range(8):
        assert (generate_fleet_case(0, index).to_dict()
                == generate_fleet_case(0, index).to_dict())


def test_fleet_cases_leave_regular_streams_untouched():
    # The committed corpus pins generate_case's streams; interleaving
    # fleet cases must not perturb them.
    alone = [generate_case(0, i).to_dict() for i in range(10)]
    _ = [generate_fleet_case(0, i) for i in range(10)]
    assert [generate_case(0, i).to_dict() for i in range(10)] == alone


def test_fleet_grammar_bounds_hold():
    from repro.cluster.spec import FleetSpec
    for index in range(30):
        case = generate_fleet_case(0, index)
        assert case.workload == "fleet"
        assert case.faults == []
        assert case.config in PRESETS
        spec = FleetSpec.from_dict(case.params)
        assert spec.servers in FLEET_SERVERS
        assert spec.connections in FLEET_CONNECTIONS
        assert spec.duration_ns in FLEET_DURATIONS_NS
        for event in (spec.server_down, spec.pf_flap):
            if event is not None:
                assert 0 <= event[0] < spec.servers
                assert (spec.duration_ns // 4 <= event[1]
                        <= (spec.duration_ns * 3) // 4)


def test_fleet_case_round_trips_and_validates():
    case = generate_fleet_case(3, 4)
    data = case.to_dict()
    assert FuzzCase.from_dict(data).to_dict() == data

    broken = dict(data, duration_ns=data["duration_ns"] * 2)
    with pytest.raises(ValueError):
        FuzzCase.from_dict(broken)
    with_faults = dict(data, faults=[
        {"target": "nic", "kind": "pf_down", "at_ns": 0,
         "duration_ns": 1, "pf_id": 0}])
    with pytest.raises(ValueError):
        FuzzCase.from_dict(with_faults)


def test_fleet_case_runs_clean_through_run_case():
    case = generate_fleet_case(0, 4).to_dict()
    result = run_case(case)
    assert result["outcome"] == "ok"
    assert result["violations"] == []
    assert result["fingerprint"]
    assert result["metrics"]["served"] > 0
    # Dispatch and direct call are the same path.
    direct = run_fleet_case(case)
    assert direct["fingerprint"] == result["fingerprint"]


def test_fleet_shrink_candidates_stay_valid():
    case = generate_fleet_case(1, 9).to_dict()
    cands = list(candidates(case))
    assert cands, "a fresh fleet case must have simplification steps"
    for cand in cands:
        # Every candidate must still parse as a valid fleet case.
        FuzzCase.from_dict(cand)
        assert cand["workload"] == "fleet"


def test_fleet_shrink_can_drop_the_failure_scenario():
    base = generate_fleet_case(0, 0).to_dict()
    base["params"]["server_down"] = [0, base["duration_ns"] // 2]
    cands = list(candidates(base))
    assert any(c["params"]["server_down"] is None for c in cands)


def test_campaign_interleaves_fleet_cases():
    summary = fuzz(master_seed=0, cases=5, invariants=["conservation"])
    workloads = [r["case"]["workload"] for r in summary["results"]]
    assert workloads.count("fleet") == 1
    assert workloads[4] == "fleet"
    assert summary["failures"] == 0

    solo = fuzz(master_seed=0, cases=5, invariants=["conservation"],
                fleet_every=0)
    assert all(r["case"]["workload"] != "fleet"
               for r in solo["results"])


def test_mutation_mode_skips_fleet_cases():
    summary = fuzz(master_seed=0, cases=5,
                   invariants=["conservation", "mutation_smoke"],
                   shrink_budget=1)
    assert all(r["case"]["workload"] != "fleet"
               for r in summary["results"])

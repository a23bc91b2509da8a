"""The generator: determinism, grammar bounds, serialization."""

import pytest

from repro.components import PRESETS
from repro.fuzz.case import (DURATIONS_NS, MAX_FAULTS, SSD_FAULT_KINDS,
                             WORKLOADS, FuzzCase, generate_case)


def test_generation_is_deterministic():
    for index in range(20):
        assert (generate_case(0, index).to_dict()
                == generate_case(0, index).to_dict())


def test_cases_are_independent_streams():
    # Case i's content must not depend on whether other cases were
    # generated — that's what keeps corpus entries replayable.
    alone = generate_case(3, 7).to_dict()
    _ = [generate_case(3, i) for i in range(7)]
    assert generate_case(3, 7).to_dict() == alone


def test_different_seeds_differ():
    a = [generate_case(0, i).to_dict() for i in range(10)]
    b = [generate_case(1, i).to_dict() for i in range(10)]
    assert a != b


def test_round_trip_through_dict():
    for index in range(20):
        case = generate_case(0, index)
        assert FuzzCase.from_dict(case.to_dict()).to_dict() == case.to_dict()


def test_grammar_bounds_hold_over_many_cases():
    for index in range(60):
        case = generate_case(0, index)
        assert case.config in PRESETS
        assert case.workload in WORKLOADS
        assert case.duration_ns in DURATIONS_NS
        assert len(case.faults) <= MAX_FAULTS
        for fault in case.faults:
            assert 0 <= fault["at_ns"] <= case.duration_ns * 0.8
            assert 1 <= fault["duration_ns"] <= case.duration_ns
            if fault["target"] == "ssd":
                assert case.has_nvme
                assert fault["kind"] in SSD_FAULT_KINDS
                if case.config != "ioctopus" and "pf_id" in fault:
                    assert fault["pf_id"] == 0


def test_fault_plan_splits_by_target():
    case = FuzzCase(
        case_id="t", seed=0, config="ioctopus", workload="colocated",
        params={"message_bytes": 4096, "block_bytes": 32768, "iodepth": 8},
        duration_ns=1_000_000,
        faults=[
            {"target": "nic", "kind": "pf_down", "at_ns": 10,
             "duration_ns": 100, "pf_id": 0},
            {"target": "ssd", "kind": "pcie_degrade", "at_ns": 20,
             "duration_ns": 100, "pf_id": 1, "lanes": 2},
        ])
    assert [s.kind for s in case.fault_plan("nic")] == ["pf_down"]
    assert [s.kind for s in case.fault_plan("ssd")] == ["pcie_degrade"]


@pytest.mark.parametrize("patch", [
    {"config": "mystery"},
    {"workload": "crypto_mining"},
    {"duration_ns": 10},
    {"faults": [{"kind": "pf_down", "at_ns": 0, "duration_ns": 1,
                 "pf_id": 0}]},                      # no target
    {"faults": [{"target": "nic", "kind": "pf_down", "at_ns": 0,
                 "duration_ns": 1}]},                # pf fault, no pf_id
    {"faults": [{"target": "nic", "kind": "pcie_degrade", "at_ns": 0,
                 "duration_ns": 1, "pf_id": 0}]},    # degrade, no lanes
])
def test_malformed_cases_rejected(patch):
    data = generate_case(0, 0).to_dict()
    data.update(patch)
    with pytest.raises(ValueError):
        FuzzCase.from_dict(data)


# ------------------------------------------------- component toggles

def test_component_toggles_draw_from_their_own_stream():
    # Stripping the toggles from a generated case must reproduce the
    # exact pre-toggle grammar: the draws live in a separate
    # ``components-{index}`` child stream, so config/workload/params/
    # faults are untouched by their introduction.
    for index in range(30):
        case = generate_case(11, index).to_dict()
        case.pop("components", None)
        again = generate_case(11, index).to_dict()
        again.pop("components", None)
        assert case == again


def test_some_cases_carry_off_toggles_all_fault_safe():
    from repro.components import fault_safe_component_names
    safe = set(fault_safe_component_names())
    seen = {}
    for index in range(80):
        for name, enabled in generate_case(0, index).components.items():
            assert name in safe
            assert enabled is False
            seen[name] = enabled
    assert seen  # the axis actually fires at 15% per component


def test_component_toggle_validation():
    base = generate_case(0, 0).to_dict()
    for components in ({"no_reorder_resteer": False},   # not fault-safe
                       {"mystery_knob": False},         # unknown
                       {"ddio": True}):                 # on-toggle
        data = dict(base, components=components)
        with pytest.raises(ValueError):
            FuzzCase.from_dict(data)


def test_components_key_omitted_when_empty_and_round_trips():
    case = generate_case(0, 0)
    bare = FuzzCase.from_dict(dict(case.to_dict(), components={}))
    assert "components" not in bare.to_dict()
    toggled = FuzzCase.from_dict(dict(case.to_dict(),
                                      components={"ddio": False}))
    assert toggled.to_dict()["components"] == {"ddio": False}
    assert FuzzCase.from_dict(toggled.to_dict()).components == \
        {"ddio": False}
    assert " -ddio" in toggled.describe()


def test_fleet_cases_reject_component_toggles():
    from repro.fuzz.case import generate_fleet_case
    fleet = generate_fleet_case(0, 0).to_dict()
    fleet["components"] = {"ddio": False}
    with pytest.raises(ValueError):
        FuzzCase.from_dict(fleet)

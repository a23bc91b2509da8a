"""The component registry: contents, metadata, and declarations."""

import pytest

from repro.components import (
    LAYERS,
    Component,
    all_components,
    component_names,
    default_states,
    fault_safe_component_names,
    get_component,
)

EXPECTED = ("ddio", "arfs_migration", "xps", "mpfs_fast_failover",
            "interrupt_moderation", "no_reorder_resteer")


def test_registry_contains_the_paper_components():
    assert component_names() == EXPECTED


def test_every_component_defaults_on():
    assert default_states() == {name: True for name in EXPECTED}


def test_components_declare_valid_layers():
    for component in all_components():
        assert component.layer in LAYERS
        assert component.paper_ref
        assert component.cost_note


def test_unsafe_components_are_excluded_from_fault_safe_set():
    safe = fault_safe_component_names()
    assert "no_reorder_resteer" not in safe
    assert "mpfs_fast_failover" not in safe
    assert set(safe) == set(EXPECTED) - {"no_reorder_resteer",
                                         "mpfs_fast_failover"}


def test_get_component_unknown_raises():
    with pytest.raises(KeyError):
        get_component("warp_drive")


def test_component_rejects_bogus_layer():
    with pytest.raises(ValueError):
        Component(name="x", layer="cloud", paper_ref="", default=True,
                  cost_note="", apply=lambda hosts, env: None,
                  remove=lambda hosts, env: None)

"""MetricsRegistry and instrument semantics."""

import pytest

from repro.obs import MetricsRegistry


def test_gauge_read_time_binding():
    reg = MetricsRegistry()
    state = {"v": 1}
    g = reg.gauge("x.level", fn=lambda: state["v"])
    assert g.value == 1
    state["v"] = 7          # no instrument call on the "hot path"
    assert g.value == 7
    with pytest.raises(ValueError):
        g.set(3.0)          # bound gauges are read-only


def test_gauge_settable_when_unbound():
    reg = MetricsRegistry()
    g = reg.gauge("x.manual")
    g.set(2.5)
    assert g.value == 2.5


def test_duplicate_name_rejected():
    reg = MetricsRegistry()
    reg.gauge("x.a")
    with pytest.raises(ValueError, match="x.a"):
        reg.gauge("x.a", fn=lambda: 1.0)


def test_disabled_registry_returns_shared_noop():
    reg = MetricsRegistry(enabled=False)
    assert reg.gauge("x.a") is None
    assert reg.gauge("x.b", fn=lambda: 1.0, detail=True) is None
    # Nothing registers, so nothing collects.
    assert reg.instruments == {}
    assert reg.names() == []
    assert reg.collect() == {}


def test_collect_flattens_and_filters_detail():
    reg = MetricsRegistry()
    reg.gauge("a.count", fn=lambda: 3)
    reg.gauge("a.debug", fn=lambda: 9.0, detail=True)
    reg.gauge("a.level").set(0.5)
    flat = reg.collect(include_detail=True)
    assert flat == {"a.count": 3, "a.debug": 9.0, "a.level": 0.5}
    assert list(flat) == ["a.count", "a.debug", "a.level"]
    curated = reg.collect(include_detail=False)
    assert curated == {"a.count": 3, "a.level": 0.5}


def test_namespace_prefixes_every_instrument():
    registry = MetricsRegistry(namespace="srv3")
    registry.gauge("nic.doorbells", lambda: 7)
    registry.gauge("qpi.util", lambda: 0.5)
    assert registry.names() == ["srv3.nic.doorbells", "srv3.qpi.util"]


def test_namespaced_registries_do_not_collide_when_absorbed():
    fleet = MetricsRegistry()
    for server in range(3):
        fleet.absorb({"nic.rx_bytes": 100 * server, "cpu.util": 0.1},
                     namespace=f"srv{server}")
    assert fleet.get("srv0.nic.rx_bytes").value == 0.0
    assert fleet.get("srv2.nic.rx_bytes").value == 200.0
    assert len(fleet.names()) == 6


def test_absorb_same_namespace_twice_collides():
    fleet = MetricsRegistry()
    fleet.absorb({"x": 1.0}, namespace="srv0")
    with pytest.raises(ValueError):
        fleet.absorb({"x": 2.0}, namespace="srv0")


def test_absorb_on_disabled_registry_is_noop():
    registry = MetricsRegistry(enabled=False)
    registry.absorb({"x": 1.0}, namespace="srv0")
    assert registry.instruments == {}

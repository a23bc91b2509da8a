"""Tests for tracing and the seeded RNG."""

import pytest

from repro.sim import SimRandom, TraceRecord, Tracer
from repro.units import bytes_per_sec, gbps


def test_tracer_disabled_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(10, "nic", "tx")
    assert tracer.records == []


def test_tracer_records_and_filters():
    tracer = Tracer(enabled=True)
    tracer.emit(10, "nic.pf0", "tx", {"bytes": 64})
    tracer.emit(20, "nic.pf1", "rx")
    tracer.emit(30, "dram0", "read")
    assert len(tracer.records) == 3
    assert [r.event for r in tracer.records
            if r.source == "nic.pf0"] == ["tx"]
    assert [r.time for r in tracer.records if r.event == "rx"] == [20]
    assert tracer.records[0].payload == {"bytes": 64}
    assert tracer.counts() == {"tx": 1, "rx": 1, "read": 1}


def test_trace_record_str():
    record = TraceRecord(100, "nic", "tx", 42)
    assert "nic" in str(record) and "tx" in str(record)


def test_chrome_trace_export():
    import json

    tracer = Tracer(enabled=True)
    tracer.emit(1_000, "nic.pf0", "dev.pf_down", "cause=test")
    tracer.emit(2_500, "team", "failover.begin")
    doc = json.loads(tracer.to_chrome_trace(process_name="unit"))
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "unit"}} in meta
    assert sorted(e["args"]["name"] for e in meta
                  if e["name"] == "thread_name") == ["nic.pf0", "team"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 2
    down = next(e for e in instants if e["name"] == "dev.pf_down")
    assert down["ts"] == 1.0          # 1000 ns -> 1 us
    assert down["cat"] == "dev"
    assert down["args"] == {"payload": "cause=test"}
    begin = next(e for e in instants if e["name"] == "failover.begin")
    assert "args" not in begin        # payload-less events stay bare


def test_simrandom_same_seed_same_stream():
    a, b = SimRandom(7), SimRandom(7)
    assert [a.randint(0, 100) for _ in range(10)] == [
        b.randint(0, 100) for _ in range(10)]


def test_simrandom_children_independent_by_name():
    root = SimRandom(7)
    x = root.child("x").random()
    y = SimRandom(7).child("y").random()
    assert x != y


def test_simrandom_child_order_independent():
    r1 = SimRandom(3)
    r1.random()  # consume some parent state
    assert r1.child("net").random() == SimRandom(3).child("net").random()


def test_simrandom_bernoulli_bounds():
    rng = SimRandom(0)
    with pytest.raises(ValueError):
        rng.bernoulli(1.5)
    assert rng.bernoulli(1.0) is True or True  # valid call


def test_simrandom_helpers():
    rng = SimRandom(1)
    assert 0.0 <= rng.uniform(0, 1) <= 1.0
    assert rng.choice([1, 2, 3]) in (1, 2, 3)
    items = [1, 2, 3, 4]
    rng.shuffle(items)
    assert sorted(items) == [1, 2, 3, 4]
    assert rng.expovariate(1.0) >= 0


def test_unit_conversions_roundtrip():
    assert gbps(bytes_per_sec(100.0)) == pytest.approx(100.0)
    assert gbps(1.25e9) == pytest.approx(10.0)

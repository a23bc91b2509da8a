"""Flow tracing: the Tracer upgrade beyond instant events."""

import json

from repro.sim.tracing import Tracer


def make_tracer(**kwargs):
    return Tracer(enabled=True, flows=True, **kwargs)


def test_flow_steps_form_a_staircase():
    tracer = make_tracer()
    flow = tracer.begin_flow(1000)
    flow.step("wire", "wire.rx", 100)
    flow.step("pf0", "dma.rx", 50)
    flow.finish("app", "copy", 10)
    times = [r.time for r in tracer.records]
    assert times == [1000, 1100, 1150]          # each step advances cursor
    phases = [r.flow_phase for r in tracer.records]
    assert phases == ["s", "t", "f"]
    assert len({r.flow_id for r in tracer.records}) == 1


def test_flow_ids_increment_and_active_flow_clears():
    tracer = make_tracer()
    a = tracer.begin_flow(0)
    assert tracer.active_flow is a
    a.finish("x", "done", 0)
    assert tracer.active_flow is None
    b = tracer.begin_flow(10)
    assert b.flow_id == a.flow_id + 1


def run_n_flows(tracer, n, start_ns=0):
    recorded = []
    for i in range(n):
        flow = tracer.begin_flow(start_ns + i)
        if flow is not None:
            flow.finish("x", "d", 0)
            recorded.append(flow.flow_id)
    return recorded


def test_flow_limit_stride_samples_across_the_run():
    tracer = make_tracer(flow_limit=8)
    run_n_flows(tracer, 100)
    kept = sorted({r.flow_id for r in tracer.records})
    # Never over the cap, and not the first-N prefix: survivors sit on
    # one stride lattice spread across the whole candidate range.
    assert len(kept) <= 8
    assert kept == tracer._flow_ids
    assert kept != list(range(len(kept)))
    stride = tracer._flow_stride
    assert stride > 1
    assert all((i - tracer._flow_offset) % stride == 0 for i in kept)
    assert max(kept) >= 50                     # late flows represented


def test_flow_limit_under_cap_is_bit_identical():
    capped = make_tracer(flow_limit=1000)
    uncapped = make_tracer(flow_limit=10**9)
    for tracer in (capped, uncapped):
        for i in range(50):
            flow = tracer.begin_flow(i * 10)
            flow.step("wire", "rx", 5)
            flow.finish("app", "done", 1)
    assert capped.records == uncapped.records  # cap never hit => no-op


def test_begin_flow_none_when_flows_off():
    tracer = Tracer(enabled=True, flows=False)
    assert tracer.begin_flow(0) is None
    disabled = Tracer(enabled=False, flows=True)
    assert disabled.begin_flow(0) is None


def test_chrome_trace_emits_flow_arrows():
    tracer = make_tracer()
    flow = tracer.begin_flow(1000)
    flow.step("wire", "wire.rx", 100, {"packets": 2})
    flow.step("pf0", "dma.rx", 50)
    flow.finish("app", "copy", 10)
    doc = json.loads(tracer.to_chrome_trace())
    events = doc["traceEvents"]
    arrows = [e for e in events if e.get("cat") == "flow"]
    assert [a["ph"] for a in arrows] == ["s", "t", "f"]
    assert arrows[-1]["bp"] == "e"
    assert len({a["id"] for a in arrows}) == 1
    # The span carries structured args, not a stringified payload.
    spans = [e for e in events if e.get("ph") == "X"]
    assert spans[0]["args"] == {"packets": 2}
    assert spans[0]["dur"] == 0.1              # 100 ns in us


def test_chrome_trace_counter_and_histogram_rows():
    tracer = make_tracer()
    tracer.emit(0, "pf0", "start")
    doc = json.loads(tracer.to_chrome_trace(
        counters={"qpi.util": [(0, 0.5), (1000, 0.7)]}))
    events = doc["traceEvents"]
    counters = [e for e in events if e.get("ph") == "C"]
    assert counters == [
        {"name": "qpi.util", "ph": "C", "pid": 0, "ts": 0.0,
         "args": {"value": 0.5}},
        {"name": "qpi.util", "ph": "C", "pid": 0, "ts": 1.0,
         "args": {"value": 0.7}},
    ]
    # Counter rows are the only rows after the records.
    assert events[-2:] == counters

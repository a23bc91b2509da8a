"""ObsSession end-to-end: attach, report, export — and the determinism
golden proving observability never changes simulated results."""

import hashlib
import json

import pytest

from repro.experiments.runners import run_pktgen, run_rr
from repro.obs import ObsSession

#: PR 2 exact-mode pktgen golden (tests/experiments/test_batching.py);
#: must hold bit-identically with a full ObsSession attached.
PKTGEN_GOLDEN = {
    "throughput_gbps": 6.214354823529412,
    "mpps": 3.0343529411764707,
    "membw_gbps": 9.34580705882353,
}


def run_point(obs=None):
    return run_pktgen("remote", 256, 10_000_000, seed=0,
                      accuracy="exact", obs=obs)


def test_exact_golden_unchanged_with_obs_enabled():
    obs = ObsSession(enabled=True, trace=True)
    assert run_point(obs) == PKTGEN_GOLDEN


def test_exact_golden_unchanged_with_obs_disabled():
    assert run_point(ObsSession(enabled=False)) == PKTGEN_GOLDEN


def test_rr_golden_unchanged_with_obs():
    baseline = run_rr("remote", 1024, 5_000_000, seed=0, accuracy="exact")
    obs = ObsSession(enabled=True, trace=True)
    traced = run_rr("remote", 1024, 5_000_000, seed=0, accuracy="exact",
                    obs=obs)
    assert traced == baseline


#: sha256 of the two exports of CI's blame-smoke sample point (RR,
#: remote server, 1 KB messages, quick, exact).  Pins the registry and
#: export code byte for byte: regenerate only for a deliberate change.
RR_PROMETHEUS_SHA256 = (
    "d2922c663e096cb5470ea87a36d0b038cd8bddb688074080bfb45492d7a45ac2")
RR_PERFETTO_SHA256 = (
    "bcdbe0bdc0ba3703930bb63ceb10758ba2661006638125e17d258e3a74159e9e")


def test_exports_pinned_on_blame_smoke_point():
    obs = ObsSession(enabled=True, trace=True)
    run_rr("remote", 1024, 10_000_000, seed=0, accuracy="exact", obs=obs)
    prometheus = obs.prometheus().encode()
    perfetto = obs.perfetto_json().encode()
    assert hashlib.sha256(prometheus).hexdigest() == RR_PROMETHEUS_SHA256
    assert hashlib.sha256(perfetto).hexdigest() == RR_PERFETTO_SHA256


def test_registry_reports_paper_metrics():
    obs = ObsSession(enabled=True)
    run_point(obs)
    flat = obs.collect(include_detail=False)
    # The §5.1 headline channels: QPI occupancy, DDIO hit rate,
    # per-PF queue depth.
    assert 0.0 < flat["srv.qpi.1to0.occupancy"] < 1.0
    assert "srv.node1.ddio.hit_rate" in flat
    assert flat["srv.nic.pf0.queue_depth_hwm"] > 0
    assert flat["srv.nic.pf0.tx_bytes"] > 0
    table = obs.utilization_table()
    assert "srv.qpi.1to0" in table and "occupancy" in table


def test_sampler_fills_series():
    obs = ObsSession(enabled=True, sample_interval_ns=1_000_000)
    run_point(obs)
    assert obs.sampler is not None
    assert obs.sampler.samples_taken >= 9
    series = obs.sampler.series["srv.qpi.1to0.util"]
    assert series.max() > 0.0


def test_flow_crosses_four_components():
    obs = ObsSession(enabled=True, trace=True)
    run_rr("remote", 1024, 2_000_000, seed=0, accuracy="exact", obs=obs)
    doc = json.loads(obs.perfetto_json())
    events = doc["traceEvents"]
    tid_name = {e["tid"]: e["args"]["name"] for e in events
                if e.get("ph") == "M" and e.get("name") == "thread_name"}
    chains = {}
    for e in events:
        if e.get("cat") == "flow":
            chains.setdefault(e["id"], []).append(tid_name[e["tid"]])
    # At least one rx flow connects wire -> PF DMA -> IRQ -> stack -> app.
    rx = [c for c in chains.values() if any("irq" in s for s in c)]
    assert rx, "no rx flows traced"
    chain = rx[0]
    assert len(set(chain)) >= 4
    assert chain[0] == "wire"
    assert any("pf" in s for s in chain)
    assert chain[-1].endswith(".app")


def test_prometheus_dump_format():
    obs = ObsSession(enabled=True)
    run_point(obs)
    text = obs.prometheus()
    assert "# TYPE repro_srv_qpi_1to0_occupancy gauge" in text
    line = [ln for ln in text.splitlines()
            if ln.startswith("repro_srv_nic_pf0_tx_bytes ")][0]
    assert float(line.split()[-1]) > 0


def test_double_attach_rejected():
    obs = ObsSession(enabled=True)
    run_point(obs)
    with pytest.raises(ValueError, match="already attached"):
        run_point(obs)


def test_disabled_session_registers_nothing():
    obs = ObsSession(enabled=False)
    run_point(obs)
    assert obs.registry.instruments == {}
    assert obs.sampler is None
    assert obs.tracer is None


def test_prometheus_labels_stamped_on_every_sample():
    from repro.obs.export import to_prometheus
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.gauge("nic.rx_bytes", fn=lambda: 7, help="bytes")
    registry.gauge("lat").set(5.0)
    text = to_prometheus(registry, labels={"server": "3", "az": "b"})
    assert text == (
        "# TYPE repro_lat gauge\n"
        'repro_lat{az="b",server="3"} 5.0\n'
        "# HELP repro_nic_rx_bytes bytes\n"
        "# TYPE repro_nic_rx_bytes gauge\n"
        'repro_nic_rx_bytes{az="b",server="3"} 7\n')
    # No labels -> the historical bare format.
    bare = to_prometheus(registry)
    assert "repro_nic_rx_bytes 7" in bare
    assert "repro_lat 5.0" in bare

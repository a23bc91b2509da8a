"""Latency-blame attribution: conservation, tail blame, sampling,
train apportionment, fleet merge, and the fig09 breakdown."""

import pytest

from repro.cluster import FleetSpec, run_fleet
from repro.core.configurations import Testbed
from repro.experiments.runners import run_with_slack, warmup_of
from repro.obs import ObsSession
from repro.obs.blame import (BlameCollector, BlameDomain, build_report,
                             is_nudma_stage, render_text, run_blame_point,
                             stage_family)
from repro.sim.engine import ACCURACY_MODES
from repro.sim.tracing import Tracer
from repro.workloads.pktgen import Pktgen

#: Short simulated window for the tier sweeps (the CI smoke runs the
#: full quick points; these tests care about the invariant, not the
#: figures).
SHORT_NS = 2_000_000


def _stage_sum(report):
    return sum(row["total_ns"] for row in report["stages"])


# --------------------------------------------------------- conservation

@pytest.mark.parametrize("accuracy", ACCURACY_MODES)
def test_pktgen_blame_conserves_in_every_tier(accuracy):
    """fig08 point: per-stage raw sums equal end-to-end latency exactly
    even when trains seal once for K represented bursts."""
    report = run_blame_point("pktgen", "remote", size=256,
                             duration_ns=SHORT_NS, accuracy=accuracy)
    assert report["conservation"]["ok"], report["conservation"]["errors"]
    assert report["flows"] > 0
    assert _stage_sum(report) == report["e2e"]["total_ns"]


@pytest.mark.parametrize("accuracy", ACCURACY_MODES)
def test_rr_blame_conserves_in_every_tier(accuracy):
    """fig09 point: the latency path's flow decomposition (wire, DMA,
    doorbell, irq, stack, cq, app) sums to the RTT-derived latency."""
    report = run_blame_point("rr", "remote", size=64,
                             duration_ns=SHORT_NS,
                             client_config="remote", accuracy=accuracy)
    assert report["conservation"]["ok"], report["conservation"]["errors"]
    assert report["flows"] > 0
    assert _stage_sum(report) == report["e2e"]["total_ns"]


def test_exact_rr_stage_budgets_to_the_ns():
    report = run_blame_point("rr", "ioctopus", size=64,
                             duration_ns=SHORT_NS,
                             client_config="local")
    assert report["conservation"]["violations"] == 0
    # Shares are a decomposition of 1, and every per-stage p50 is a
    # plausible per-request budget (bounded by the end-to-end p99).
    assert sum(r["share"] for r in report["stages"]) == pytest.approx(1.0)
    for row in report["stages"]:
        assert 0 <= row["p50_ns"] <= report["e2e"]["max_ns"]
    blame = report["p99_blame"]
    assert blame["stage"] in {r["stage"] for r in report["stages"]}
    assert "p99 blame" in render_text(report)


# ------------------------------------------------- domain unit behavior

def test_stage_taxonomy_helpers():
    assert stage_family("dma.qpi") == "dma"
    assert stage_family("stack") == "stack"
    assert is_nudma_stage("dma.qpi") and is_nudma_stage("cq.miss")
    assert not is_nudma_stage("dma.local") and not is_nudma_stage("app")


def test_train_apportionment_keeps_raw_sums_unapportioned():
    domain = BlameDomain()
    domain.add({"stack": 640, "dma.qpi": 320}, 960, represented=4)
    assert domain.flows == 1
    assert domain.units == 4
    assert domain.total_ns == 960            # raw, unapportioned
    assert domain.stage_ns == {"stack": 640, "dma.qpi": 320}
    assert domain.e2e.count == 4             # 4 units at 240 ns each
    assert domain.e2e.percentile(50) == 240
    assert domain.stages["stack"].percentile(50) == 160


def test_tail_blame_names_the_slow_stage():
    domain = BlameDomain()
    for _ in range(98):
        domain.add({"stack": 100}, 100)
    for _ in range(2):                       # exactly the p99 tail of 100
        domain.add({"stack": 100, "dma.qpi": 9_900}, 10_000)
    tail = domain.tail_blame(99)
    assert tail["units"] == 2
    assert tail["stage_ns"] == {"stack": 200, "dma.qpi": 19_800}
    report = build_report(_collector_of(domain))
    assert report["p99_blame"]["stage"] == "dma.qpi"
    assert report["p99_blame"]["tail_share"] == pytest.approx(0.99)


def _collector_of(domain):
    collector = BlameCollector()
    collector.domains["flow"] = domain
    return collector


def test_collector_round_trip_and_merge():
    a = BlameCollector()
    a.add({"stack": 70, "wire": 30}, 100)
    b = BlameCollector()
    b.add({"stack": 40, "dma.qpi": 160}, 200)
    b.add({"queue.wait": 5, "app.service": 5}, 10, domain="txn")
    clone = BlameCollector.from_dict(a.to_dict())
    assert clone.to_dict() == a.to_dict()
    a.merge(b)
    flow = a.domain("flow")
    assert flow.flows == 2
    assert flow.total_ns == 300
    assert flow.stage_ns == {"stack": 110, "wire": 30, "dma.qpi": 160}
    assert a.domain("txn").flows == 1
    assert a.conservation_ok


def test_conservation_violation_is_counted_and_reported():
    collector = BlameCollector()
    collector.add({"stack": 70}, 100)        # 30 ns unaccounted
    assert not collector.conservation_ok
    assert collector.violations == 1
    assert "70 != end-to-end 100" in collector.conservation_errors[0]
    report = build_report(collector)
    assert not report["conservation"]["ok"]


# ------------------------------------------------------- burst sampling

def test_begin_blame_stride_samples_bursts():
    tracer = Tracer(enabled=True, blame=BlameCollector())
    admitted = [i for i in range(200)
                if tracer.begin_blame(i) is not None]
    assert len(admitted) == -(-200 // tracer.blame_stride)
    assert admitted[0] == 0
    assert admitted[1] - admitted[0] == tracer.blame_stride
    tracer.clear()
    assert tracer.begin_blame(0) is not None   # phase restarts


def test_blame_session_keeps_events_and_samples_bursts():
    """Blame only reads.  On the pktgen remote exact point, a blame
    session with no horizon (so no sampler) processes the same events
    as an unobserved run, and every sealed flow conserves.  The stride
    bounds the cost: at most one flow per ``blame_stride`` candidates."""
    def events(obs=None):
        testbed = Testbed("remote", seed=0, accuracy="exact")
        Pktgen(testbed.server, testbed.server_core(0), 256, SHORT_NS,
               warmup_of(SHORT_NS))
        if obs is not None:
            obs.attach(testbed)
        run_with_slack(testbed, SHORT_NS)
        return testbed.env.events_processed

    obs = ObsSession(enabled=True, blame=True)
    assert events(obs) == events()
    assert obs.blame.conservation_ok
    flows = obs.blame.domain("flow").flows
    candidates = obs.tracer._blame_seen
    assert 0 < flows <= -(-candidates // obs.tracer.blame_stride)


def test_begin_blame_stride_one_admits_everything():
    tracer = Tracer(enabled=True, blame=BlameCollector(), blame_stride=1)
    assert all(tracer.begin_blame(i) is not None for i in range(10))
    assert Tracer(enabled=True).begin_blame(0) is None  # no collector


# ----------------------------------------------------------- fleet view

def test_fleet_blame_merges_txn_domains():
    spec = FleetSpec(servers=2, connections=512, duration_ns=2_000_000,
                     epochs=2)
    fleet = run_fleet(spec, master_seed=3, blame=True)
    report = fleet.blame_report("txn")
    names = {row["stage"] for row in report["stages"]}
    assert names == {"queue.wait", "app.service"}
    assert report["conservation"]["ok"]
    assert report["flows"] == fleet.served
    plain = run_fleet(spec, master_seed=3)
    assert plain.blame is None
    with pytest.raises(ValueError):
        plain.blame_report()


# ------------------------------------------------------ fig09 breakdown

def test_fig09_breakdown_reports_paper_style_budgets():
    from repro.experiments.fig09_latency import (render_breakdown,
                                                 run_breakdown)
    breakdown = run_breakdown(fidelity="quick")
    assert set(breakdown["variants"]) == {"ll", "rr", "llnd"}
    for report in breakdown["variants"].values():
        assert report["conservation"]["ok"]
    # rr pays NUDMA stages ll never sees.
    rr_stages = {r["stage"] for r in breakdown["variants"]["rr"]["stages"]}
    ll_stages = {r["stage"] for r in breakdown["variants"]["ll"]["stages"]}
    assert any(s.endswith((".qpi", ".miss")) for s in rr_stages - ll_stages)
    text = render_breakdown(breakdown)
    assert "stack" in text and "rr" in text
    assert "conservation: exact in all variants" in text

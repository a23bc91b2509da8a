"""Integration tests for the ablation experiments (quick fidelity)."""

import pytest


def test_abl_wiring_tradeoffs(results):
    rows = {r["wiring"]: r for r in results("abl_wiring").as_dicts()}
    assert rows["switch"]["doorbell_ns"] > rows["bifurcation"]["doorbell_ns"]
    assert rows["switch"]["power_w"] > 0 == rows["bifurcation"]["power_w"]
    assert rows["switch"]["lanes"] == 2 * rows["bifurcation"]["lanes"]
    # Throughput impact of the hop is small for a CPU-bound workload.
    assert rows["switch"]["pktgen_mpps"] == pytest.approx(
        rows["bifurcation"]["pktgen_mpps"], rel=0.05)


def test_abl_sg_hints_win_and_avoid_crossings(results):
    table = results("abl_sg")
    for row in table.as_dicts():
        assert row["hinted_delay_us"] < row["fixed_pf_delay_us"]
        assert row["interconnect_bytes_fixed"] > 0
    # Roughly half the fragments live on the far node.
    last = table.as_dicts()[-1]
    assert last["interconnect_bytes_fixed"] >= 64 * 64 * 1024 // 2


def test_abl_octossd_eliminates_storage_nudma(results):
    table = results("abl_octossd")
    assert min(table.column("octossd_norm")) >= 0.98
    assert min(table.column("single_port_norm")) < 0.90


def test_abl_ddio_smaller_llc_more_traffic(results):
    per_gbit = results("abl_ddio").column("membw_per_gbit")
    assert per_gbit[-1] > per_gbit[0]


def test_abl_window_monotone(results):
    rates = results("abl_window").column("remote_rx_gbps")
    # Monotone up to plateau noise once the flash/CPU bound is reached.
    assert all(b >= a * 0.98 for a, b in zip(rates, rates[1:]))
    assert rates[-1] > rates[0]


def test_abl_scale_four_sockets(results):
    table = results("abl_scale")
    rows = table.as_dicts()
    assert len(rows) == 4
    # Node 0 is local for both arrangements.
    assert rows[0]["standard_pf0_gbps"] == pytest.approx(
        rows[0]["octo_gbps"], rel=0.02)
    for row in rows[1:]:
        assert row["standard_pf0_gbps"] < row["octo_gbps"]
        # The octoNIC keeps the far nodes at the local rate.
        assert row["octo_gbps"] == pytest.approx(rows[0]["octo_gbps"],
                                                 rel=0.02)

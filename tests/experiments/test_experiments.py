"""Integration tests: every experiment runs and upholds the paper's claims.

These use ``quick`` fidelity (10 ms of simulated time per point) so the
whole file stays fast; the benchmarks run the same experiments at full
fidelity.
"""

import pytest

from repro.experiments import all_experiment_names, get_experiment


def test_registry_lists_all_paper_experiments():
    names = all_experiment_names()
    for expected in ("fig02", "fig06", "fig07", "fig08", "fig09", "fig10",
                     "fig11", "fig12", "fig13", "fig14", "fig15", "sec24",
                     "sec511"):
        assert expected in names


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        get_experiment("fig99")


def test_fig02_nic_outpaces_cloud_cpus(results):
    table = results("fig02")
    # Throughout the series, one NIC covers the cloud-rate CPU many times.
    assert all(x >= 1 for x in table.column("nic_covers_cloud_cpus"))
    # By 2016 (100 GbE) even a full bare-metal CPU is covered.
    rows = {r["year"]: r for r in table.as_dicts()}
    assert rows[2016]["nic_covers_baremetal_cpus"] >= 1.0


def test_fig06_rx_local_beats_remote_and_ratio_grows(results):
    table = results("fig06")
    ratios = table.column("ratio_local_over_remote")
    assert all(r > 1.05 for r in ratios)
    assert ratios[-1] > ratios[0]          # grows with message size
    assert 1.15 <= ratios[-1] <= 1.45      # paper: ~1.26 at 64 KB
    # ioctopus == local (the headline claim).
    for row in table.as_dicts():
        assert row["ioct_gbps"] == pytest.approx(row["local_gbps"],
                                                 rel=0.02)


def test_fig06_remote_membw_about_3x_throughput(results):
    row = results("fig06").as_dicts()[-1]    # 64 KB messages
    assert row["remote_membw_gbps"] == pytest.approx(
        3 * row["remote_gbps"], rel=0.25)
    assert row["ioct_membw_gbps"] < 0.1 * row["ioct_gbps"]


def test_fig07_tx_placements_comparable(results):
    table = results("fig07")
    for ratio in table.column("ratio_local_over_remote"):
        assert 0.95 <= ratio <= 1.10
    # Remote membw equals throughput (parallel probe), local ~0.
    row = table.as_dicts()[-1]
    assert row["remote_membw_over_tput"] == pytest.approx(1.0, abs=0.15)
    assert row["ioct_membw_gbps"] < 0.1 * row["ioct_gbps"]


def test_fig07_absolute_tx_rate_near_paper(results):
    row = results("fig07").as_dicts()[-1]
    assert 40 <= row["local_gbps"] <= 55     # paper: ~47 Gb/s


def test_fig08_pktgen_rates_and_ratio(results):
    table = results("fig08")
    for row in table.as_dicts():
        assert 1.25 <= row["ratio"] <= 1.45  # paper: 1.30-1.39
        assert row["ioct_mpps"] == pytest.approx(4.1, rel=0.05)
        assert row["remote_mpps"] == pytest.approx(3.05, rel=0.06)
        assert row["ioct_membw_gbps"] < 1.0  # DDIO: no DRAM traffic
        assert row["remote_membw_gbps"] > row["remote_gbps"] * 0.7


def test_fig09_latency_ordering_and_bands(results):
    table = results("fig09")
    for row in table.as_dicts():
        assert 1.03 <= row["rr_over_ll"] <= 1.30   # paper: 10-25%
        assert 1.0 <= row["llnd_over_ll"] < row["rr_over_ll"]


def test_fig10_memcached_advantage_grows_with_sets(results):
    table = results("fig10")
    ratios = table.column("ratio")
    assert ratios[-1] > ratios[0]
    assert ratios[-1] >= 1.10               # paper: up to ~1.16
    for row in table.as_dicts():
        assert row["ioct_ktps"] >= row["remote_ktps"] * 0.99


def test_fig11_gap_widens_with_congestion(results):
    table = results("fig11")
    ratios = table.column("ratio")
    assert ratios[0] >= 1.2
    assert max(ratios) >= 1.7               # paper: up to 2.67x
    assert ratios[-1] > ratios[0]
    # ioct also degrades, but mildly.
    ioct = table.column("ioct_gbps")
    assert ioct[-1] < ioct[0] * 1.02


def test_fig12_remote_latency_grows_ioct_flat(results):
    table = results("fig12")
    ioct = table.column("ioct_us")
    remote = table.column("remote_us")
    assert remote[-1] > remote[0] * 1.1     # grows with congestion
    assert abs(ioct[-1] - ioct[0]) < 0.2    # flat
    for ratio in table.column("ioct_over_remote"):
        assert ratio < 0.97                 # ioct always lower


def test_fig13_remote_io_slows_pagerank(results):
    table = results("fig13")
    for row in table.as_dicts():
        assert row["pr_slowdown_remote"] > 1.02


def test_fig14_octonic_resteers_standard_does_not(results):
    table = results("fig14")
    rows = table.as_dicts()
    octo = [r for r in rows if r["config"] == "octoNIC"]
    std = [r for r in rows if r["config"] == "ethNIC"]
    # octoNIC: traffic fully moves from pf0 to pf1 at the same level.
    assert octo[0]["pf0_gbps"] > 20 and octo[0]["pf1_gbps"] == 0
    assert octo[-1]["pf1_gbps"] > 20 and octo[-1]["pf0_gbps"] == 0
    assert octo[-1]["pf1_gbps"] == pytest.approx(octo[0]["pf0_gbps"],
                                                 rel=0.05)
    # standard NIC: stays on pf0, drops to remote level.
    assert std[-1]["pf1_gbps"] == 0
    assert std[-1]["pf0_gbps"] < std[0]["pf0_gbps"] * 0.85


def test_fig15_fio_degrades_then_flattens(results):
    table = results("fig15")
    norm = table.column("fio_normalized")
    assert norm[0] == 1.0
    assert 0.70 <= min(norm) <= 0.85        # paper: up to ~24% degradation
    # Flattens: the last two points are equal-ish.
    assert norm[-1] == pytest.approx(norm[-2], abs=0.03)


def test_sec24_remote_ddio_is_marginal(results):
    table = results("sec24")
    improvement = table.as_dicts()[1]["vs_default_remote"]
    assert 0.95 <= improvement <= 1.05      # paper: "up to 2%"


def test_sec511_multicore_line_rate_and_memory_traffic(results):
    table = results("sec511")
    rows = {r["config"]: r for r in table.as_dicts()}
    # ioctopus reaches (near) wire line rate across both PFs.
    assert rows["ioctopus"]["total_gbps"] > 85
    # Unlike single-core, ioctopus now shows real memory traffic.
    assert rows["ioctopus"]["membw_gbps"] > 10
    # remote pays ~3x memory bandwidth.
    assert rows["remote"]["membw_per_gbit"] > 2.5


def test_every_experiment_has_table_output(results):
    for name in all_experiment_names():
        table = results(name)
        text = table.table()
        assert name in text
        assert len(table.rows) >= 2

"""Fleet workload behaviour: open-loop queueing, incast spikes, the
slow-client starvation bound, independence from the accuracy tier."""

from repro.cluster import FleetSpec, run_fleet_server
from repro.cluster.workload import FLEET_MAX_BATCH, SLOW_HOLD_CAP_NS
from repro.experiments.base import ACCURACY_MODES, configure_accuracy
from repro.metrics.collect import LatencyDigest

BASE = dict(servers=2, connections=8192, duration_ns=4_000_000,
            epochs=4, conn_rate_tps=16.0)


def _digest(shard) -> LatencyDigest:
    return LatencyDigest.from_dict(shard["digest"])


def test_incast_bursts_create_queueing_tails():
    calm = run_fleet_server(
        0, FleetSpec(incast_per_epoch=0, **BASE).to_dict(), 3)
    burst = run_fleet_server(
        0, FleetSpec(incast_fanin=256, **BASE).to_dict(), 3)
    assert _digest(burst).percentile(99) > 10 * _digest(calm).percentile(99)
    # The burst is extra load, not replacement load.
    assert burst["planned"] > calm["planned"]


def test_slow_clients_hurt_but_are_bounded():
    quiet = dict(BASE, incast_per_epoch=0)
    fast = run_fleet_server(
        0, FleetSpec(slow_fraction=0.0, **quiet).to_dict(), 3)
    slow = run_fleet_server(
        0, FleetSpec(slow_fraction=0.1, slow_factor=8.0,
                     **quiet).to_dict(), 3)
    d_fast, d_slow = _digest(fast), _digest(slow)
    # Slow readers visibly stretch the distribution...
    assert d_slow.average() > 1.5 * d_fast.average()
    # ...but the hold cap and batch cap bound the starvation: the tail
    # cannot blow past the slow factor's share of the base service.
    assert d_slow.percentile(99) <= (
        (1 + 2 * 8.0) * d_fast.percentile(99)
        + FLEET_MAX_BATCH * SLOW_HOLD_CAP_NS)
    assert d_slow.percentile(99) < 3_000_000


def test_diurnal_peak_carries_more_arrivals():
    shard = run_fleet_server(
        0, FleetSpec(incast_per_epoch=0, diurnal_amplitude=0.5,
                     **BASE).to_dict(), 3)
    counts = [shard["epoch_digests"][str(e)]["count"] for e in range(4)]
    # Epochs 1-2 straddle the mid-run peak; 0 and 3 the troughs.
    assert min(counts[1], counts[2]) > max(counts[0], counts[3])


def test_churn_is_counted_not_simulated():
    shard = run_fleet_server(0, FleetSpec(**BASE).to_dict(), 3)
    assert sum(shard["churn_by_epoch"]) > 0
    # Replacement is instant: the active population never shrinks.
    assert all(c == shard["conns_by_epoch"][0]
               for c in shard["conns_by_epoch"])


def test_shard_determinism_per_accuracy_tier():
    """A shard repeats exactly under every --accuracy override."""
    spec = FleetSpec(servers=2, connections=2048, duration_ns=2_000_000,
                     epochs=2).to_dict()
    for mode in ACCURACY_MODES:
        configure_accuracy(mode)
        try:
            first = run_fleet_server(1, spec, 11)
            assert run_fleet_server(1, spec, 11) == first, mode
        finally:
            configure_accuracy(None)


def test_exact_and_fluid_agree_on_counts():
    """The fleet reads no accuracy tier, so exact and the coarsest tier
    (adaptive, since the fluid tier was retired) agree on every count
    and percentile: the whole shard is the same as with no override."""
    spec = FleetSpec(servers=2, connections=2048, duration_ns=2_000_000,
                     epochs=2).to_dict()
    default = run_fleet_server(0, spec, 11)
    shards = {}
    for mode in ACCURACY_MODES:
        configure_accuracy(mode)
        try:
            shards[mode] = run_fleet_server(0, spec, 11)
        finally:
            configure_accuracy(None)
    exact, coarse = shards["exact"], shards["adaptive"]
    assert exact["planned"] == coarse["planned"]
    assert exact["served"] == coarse["served"]
    p99_exact = LatencyDigest.from_dict(exact["digest"]).percentile(99)
    p99_coarse = LatencyDigest.from_dict(coarse["digest"]).percentile(99)
    assert p99_coarse == p99_exact
    for mode, shard in shards.items():
        assert shard == default, mode

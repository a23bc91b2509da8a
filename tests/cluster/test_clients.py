"""Client-fleet generators: determinism, Zipf skew, churn, diurnal,
incast — everything the arrival planner consumes."""

import math
from bisect import bisect_right

import pytest

from repro.cluster.clients import (diurnal_factor, epoch_edges, fleet_rng,
                                   generate_block, incast_schedule,
                                   server_seed)
from repro.cluster.spec import FleetSpec

SPEC = FleetSpec(servers=4, connections=32768, duration_ns=8_000_000,
                 epochs=4)
#: duration_ns not divisible by epochs: the integer epoch edges are
#: floors, where a naive inverse of epoch_of is off by one.
UNEVEN = FleetSpec(connections=4096, duration_ns=10_000_007, epochs=7,
                   churn_lifetime_ns=3_000_000)


def test_block_regeneration_is_deterministic():
    first = generate_block(123, 7, 512, SPEC)
    again = generate_block(123, 7, 512, SPEC)
    assert first == again
    other_block = generate_block(123, 8, 512, SPEC)
    assert other_block != first
    other_seed = generate_block(124, 7, 512, SPEC)
    assert other_seed != first


def test_server_seeds_are_decorrelated():
    seeds = {server_seed(9, s) for s in range(16)}
    assert len(seeds) == 16
    assert server_seed(9, 0) == server_seed(9, 0)
    assert server_seed(10, 0) != server_seed(9, 0)


def test_zipf_weights_are_skewed_but_normalized():
    profile = generate_block(5, 0, 2048, SPEC)
    assert profile.total_weight == pytest.approx(2048)
    # Zipf: the hottest connection is far above the mean weight of 1.
    assert profile.top_weight > 5.0
    uniform = generate_block(
        5, 0, 2048, FleetSpec(connections=32768, zipf_s=0.0))
    assert uniform.top_weight == pytest.approx(1.0)


def test_slow_weight_tracks_slow_fraction():
    profile = generate_block(5, 3, 4096, SPEC)
    share = profile.slow_weight / profile.total_weight
    assert 0.2 * SPEC.slow_fraction < share < 5 * SPEC.slow_fraction
    none_slow = generate_block(
        5, 3, 4096, FleetSpec(connections=32768, slow_fraction=0.0))
    assert none_slow.slow_weight == 0.0


def test_churn_scales_with_lifetime():
    short = FleetSpec(connections=32768, duration_ns=8_000_000, epochs=4,
                      churn_lifetime_ns=1_000_000)
    long = FleetSpec(connections=32768, duration_ns=8_000_000, epochs=4,
                     churn_lifetime_ns=800_000_000)
    churny = generate_block(1, 0, 2048, short)
    stable = generate_block(1, 0, 2048, long)
    assert sum(churny.churn_by_epoch) > 10 * max(
        1, sum(stable.churn_by_epoch))
    assert len(churny.churn_by_epoch) == short.epochs
    assert sum(churny.churn_by_epoch) <= 2048


def test_epoch_edges_bin_like_epoch_of():
    edges = epoch_edges(UNEVEN)
    assert len(edges) == UNEVEN.epochs - 1
    times = [0, UNEVEN.duration_ns - 1]
    for edge in edges:
        times += [edge - 1, edge, edge + 1]
    for t in times:
        assert bisect_right(edges, t) == UNEVEN.epoch_of(t), t


@pytest.mark.parametrize("spec", [
    UNEVEN,
    # A 10 ns run: many deaths land exactly on an epoch edge.
    FleetSpec(connections=4096, duration_ns=10, epochs=7,
              churn_lifetime_ns=3),
])
def test_churn_by_epoch_matches_an_epoch_of_count(spec):
    size = 256
    profile = generate_block(9, 3, size, spec)
    # Replay the block's stream: weights, slow flags, births, lifetimes.
    rng = fleet_rng(9).child("block-3")
    rng.batch(size)
    rng.batch(size)
    births, lives = rng.batch(size), rng.batch(size)
    want = [0] * spec.epochs
    for ub, ul in zip(births, lives):
        death = (int(ub * spec.duration_ns)
                 + int(-spec.mean_lifetime_ns() * math.log(1.0 - ul)))
        if death < spec.duration_ns:
            want[spec.epoch_of(death)] += 1
    assert sum(want) > size // 2
    assert list(profile.churn_by_epoch) == want


def test_diurnal_curve_spans_trough_to_peak():
    amp = SPEC.diurnal_amplitude
    assert diurnal_factor(SPEC, 0) == pytest.approx(1 - amp)
    assert diurnal_factor(SPEC, SPEC.duration_ns // 2) == (
        pytest.approx(1 + amp))
    flat = FleetSpec(connections=1024, diurnal_amplitude=0.0)
    assert diurnal_factor(flat, 12345) == 1.0


def test_incast_schedule_is_deterministic_and_in_bounds():
    first = incast_schedule(77, 2, SPEC)
    assert first == incast_schedule(77, 2, SPEC)
    assert first != incast_schedule(77, 3, SPEC)
    assert len(first) == SPEC.epochs
    for epoch, bursts in enumerate(first):
        start, end = SPEC.epoch_bounds()[epoch]
        assert len(bursts) == SPEC.incast_per_epoch
        for t, fanin in bursts:
            assert start <= t < end
            assert fanin == SPEC.incast_fanin


def test_fleet_rng_streams_are_order_independent():
    root = fleet_rng(3)
    a_then_b = (root.child("block-1").random(),
                root.child("block-2").random())
    root2 = fleet_rng(3)
    b_then_a = (root2.child("block-2").random(),
                root2.child("block-1").random())
    assert a_then_b == (b_then_a[1], b_then_a[0])

"""Client-fleet generators: determinism, Zipf skew, churn, diurnal,
incast — everything the arrival planner consumes."""

import math
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.clients import (MAX_CONN_WEIGHT, BlockProfile,
                                   diurnal_factor, epoch_edges, fleet_rng,
                                   generate_block, incast_schedule,
                                   server_seed)
from repro.cluster.spec import FleetSpec
from repro.sim.rng import SimRandom

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


def reference_block(master_seed, block_id, size, spec):
    """The per-connection population loop :func:`generate_block` replaced:
    one interpreter step per draw and per connection.  Its output must
    stay bit-identical."""
    if size <= 0:
        return BlockProfile(block_id, 0, 0.0, 0.0, 0.0,
                            tuple([0] * spec.epochs))
    rng = fleet_rng(master_seed).child(f"block-{block_id}")
    u_weight, u_slow, u_birth, u_life = (
        [rng.random() for _ in range(size)] for _ in range(4))

    if spec.zipf_s > 0:
        inv_s = 1.0 / spec.zipf_s
        weights = [min((1.0 - u) ** -inv_s, MAX_CONN_WEIGHT)
                   for u in u_weight]
    else:
        weights = [1.0] * size
    scale = size / sum(weights)
    weights = [w * scale for w in weights]

    slow_weight = 0.0
    for u, w in zip(u_slow, weights):
        if u < spec.slow_fraction:
            slow_weight += w

    mean_life = spec.mean_lifetime_ns()
    duration = spec.duration_ns
    edges = epoch_edges(spec)
    churn = [0] * spec.epochs
    for ub, ul in zip(u_birth, u_life):
        birth = int(ub * duration)
        death = birth + int(-mean_life * math.log(1.0 - ul))
        if death < duration:
            churn[bisect_right(edges, death)] += 1

    return BlockProfile(block_id, size, sum(weights), slow_weight,
                        max(weights), tuple(churn))


@st.composite
def population_specs(draw):
    duration = draw(st.integers(1, 10**9))
    # The block size is drawn apart: generate_block reads no connections.
    return FleetSpec(
        connections=1,
        duration_ns=duration,
        epochs=draw(st.integers(1, min(16, duration))),
        # Below ~0.25 the parent's power overflows a double.
        zipf_s=draw(st.one_of(st.just(0.0), st.floats(0.25, 4.0))),
        slow_fraction=draw(st.floats(0.0, 1.0)),
        churn_lifetime_ns=draw(st.one_of(st.just(0),
                                         st.integers(1, 2 * 10**9))))


#: A block whose draws reach MAX_CONN_WEIGHT (the clamped branch).
CAPPED = dict(master_seed=11, block_id=5, size=600,
              spec=FleetSpec(connections=1, zipf_s=0.3, epochs=5,
                             duration_ns=7_000_003))


def test_capped_example_reaches_the_weight_cap():
    spec = CAPPED["spec"]
    draws = fleet_rng(CAPPED["master_seed"]).child(
        f"block-{CAPPED['block_id']}").batch(CAPPED["size"])
    assert max((1.0 - u) ** -(1.0 / spec.zipf_s)
               for u in draws) > MAX_CONN_WEIGHT


@settings(max_examples=200, deadline=None)
@given(master_seed=st.integers(0, 2**32), block_id=st.integers(0, 511),
       size=st.integers(0, 700), spec=population_specs())
@example(**CAPPED)
def test_generate_block_matches_the_per_connection_reference(
        master_seed, block_id, size, spec):
    assert (generate_block(master_seed, block_id, size, spec)
            == reference_block(master_seed, block_id, size, spec))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.integers(0, 500))
def test_batch_equals_sequential_draws(seed, n):
    batched, single = SimRandom(seed), SimRandom(seed)
    assert batched.batch(n) == [single.random() for _ in range(n)]
    # The stream continues from the same place.
    assert batched.random() == single.random()

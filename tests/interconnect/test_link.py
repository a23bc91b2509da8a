"""Tests for QPI/UPI interconnect links."""

import pytest

from repro.interconnect import Interconnect
from repro.interconnect.link import InterconnectLink
from repro.sim import Environment


@pytest.fixture
def qpi():
    return Interconnect(Environment(), num_nodes=2,
                        bytes_per_sec_per_direction=28e9,
                        crossing_latency_ns=30)


def test_same_node_traverse_is_free(qpi):
    assert qpi.traverse(0, 0, 10_000) == 0


def test_crossing_includes_latency_and_service(qpi):
    delay = qpi.traverse(0, 1, 2800)
    # 30 ns crossing + 2800 B / 28 GB/s = 100 ns
    assert delay == 30 + 100


def test_directions_are_independent(qpi):
    qpi.traverse(0, 1, 28_000_000)  # load 0->1 heavily
    # 1->0 unaffected
    assert qpi.traverse(1, 0, 2800) == 130


def test_backlog_accumulates(qpi):
    first = qpi.traverse(0, 1, 28_000)
    second = qpi.traverse(0, 1, 28_000)
    assert second > first


def test_round_trip_charges_both_directions(qpi):
    delay = qpi.round_trip(0, 1, 64, 2800)
    fwd = qpi.link(0, 1).bytes_total
    back = qpi.link(1, 0).bytes_total
    assert (fwd, back) == (64, 2800)
    assert delay >= 60  # two crossings


def test_round_trip_same_node_free(qpi):
    assert qpi.round_trip(1, 1, 64, 2800) == 0


def test_missing_link_raises(qpi):
    with pytest.raises(KeyError):
        qpi.link(0, 0)
    with pytest.raises(KeyError):
        qpi.link(0, 5)
    with pytest.raises(KeyError, match="no interconnect link 0->5"):
        qpi.traverse(0, 5, 64)


@pytest.mark.parametrize("preload, cap, factor", [
    (0, 12.0, 1.0),              # idle link
    (10_000, 12.0, 1.6),         # u = 0.5, below the cap
    (19_800, 12.0, 12.0),        # u = 0.99: 60.4x, capped
    (40_000, 1e9, 600_001.0),    # u = 1: 1 - u floored at 1e-6, no cap
])
def test_traverse_matches_load_factor(preload, cap, factor):
    """traverse() and loaded_crossing_ns() inline load_factor()'s
    max()/min(); they must agree with it bit-for-bit at both clamps."""
    env = Environment()
    link, twin = (InterconnectLink(env, 0, 1, 1e9, 30,
                                   max_latency_inflation=cap)
                  for _ in range(2))
    for each in (link, twin):
        each.traverse(preload)
    # Charge at the next bucket start: u is the preloaded bucket's load.
    env._now = link.bucket_ns
    got = link.traverse(64)
    twin.posted_crossing_ns(64)     # the bucket charge alone
    assert twin.load_factor() == pytest.approx(factor)
    assert (twin._last_utilization, twin._bucket_start,
            twin._bucket_bytes) == (link._last_utilization,
                                    link._bucket_start, link._bucket_bytes)
    assert got == (int(twin.crossing_latency_ns * twin.load_factor())
                   + twin.account(64))
    assert link.loaded_crossing_ns() == int(
        link.crossing_latency_ns * link.load_factor())


def test_probe_delay_does_not_charge(qpi):
    before = qpi.link(0, 1).bytes_total
    qpi.link(0, 1).probe_delay(64)
    assert qpi.link(0, 1).bytes_total == before


def test_num_links_for_n_nodes():
    ic = Interconnect(Environment(), num_nodes=4,
                      bytes_per_sec_per_direction=1e9,
                      crossing_latency_ns=10)
    assert len(ic.links()) == 12  # 4*3 directed pairs


def test_invalid_node_count():
    with pytest.raises(ValueError):
        Interconnect(Environment(), num_nodes=0,
                     bytes_per_sec_per_direction=1e9, crossing_latency_ns=1)


def test_throttle_reduces_rate_and_estimates(qpi):
    link = qpi.link(0, 1)
    base = link.bytes_per_sec
    link.throttle(0.5)
    assert link.is_throttled
    assert link.bytes_per_sec == pytest.approx(base * 0.5)
    # The load bucket reads against the throttled rate too: a bucket
    # of traffic at a quarter of the rated bandwidth loads the
    # half-rate link to u = 0.5, an inflation of 1 + 0.6 * 0.5 / 0.5.
    link.traverse(int(base / 4 * link.bucket_ns / 1e9))
    link.env._now = link.bucket_ns
    assert link.load_factor() == pytest.approx(1.6)
    link.unthrottle()
    assert not link.is_throttled
    assert link.bytes_per_sec == pytest.approx(base)
    assert link.load_factor() == pytest.approx(1.0 + 0.6 * 0.25 / 0.75)


def test_throttled_crossing_is_slower(qpi):
    fast = qpi.traverse(0, 1, 28_000)
    qpi.link(0, 1).throttle(0.25)
    slow = qpi.traverse(0, 1, 28_000)
    assert slow > fast


def test_negative_traverse_charges_nothing(qpi):
    """A rejected transfer leaves the queue, the load bucket and the
    counters as they were."""
    link = qpi.link(0, 1)
    link.traverse(1000)
    link.env._now = 50

    def state():
        return (link._free_at, link.busy_ns, link.bytes_total,
                link._window_bytes, link._last_utilization,
                link._bucket_start, link._bucket_bytes)

    before = state()
    with pytest.raises(ValueError, match="negative transfer size -500"):
        link.traverse(-500)
    with pytest.raises(ValueError, match="negative transfer size -500"):
        qpi.traverse(0, 1, -500)
    assert state() == before
    assert link._bucket_bytes == 1000


def test_link_utilization_is_busy_fraction_since_t0(qpi):
    """What the obs occupancy gauge reads: busy over [0, 100) ns, then
    idle, reads 0.1 at t = 1000.  There is no ``since`` window."""
    link = qpi.link(0, 1)
    link.traverse(2800)                 # 100 ns of service at 28 GB/s
    link.env._now = 1000
    assert link.busy_ns == 100
    assert link.utilization() == pytest.approx(0.1)
    with pytest.raises(TypeError):
        link.utilization(since=500)


def test_throttle_validates_factor(qpi):
    link = qpi.link(0, 1)
    with pytest.raises(ValueError):
        link.throttle(0.0)
    with pytest.raises(ValueError):
        link.throttle(1.5)

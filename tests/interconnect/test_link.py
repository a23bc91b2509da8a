"""Tests for QPI/UPI interconnect links."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import Interconnect
from repro.interconnect.link import InterconnectLink
from repro.sim import Environment
from repro.sim.resources import LOAD_BUCKET_NS, SERVICE_MEMO_ENTRIES


@pytest.fixture
def qpi():
    return Interconnect(Environment(), num_nodes=2,
                        bytes_per_sec_per_direction=28e9,
                        crossing_latency_ns=30)


def test_crossing_includes_latency_and_service(qpi):
    delay = qpi.link(0, 1).traverse(2800)
    # 30 ns crossing + 2800 B / 28 GB/s = 100 ns
    assert delay == 30 + 100


def test_directions_are_independent(qpi):
    qpi.link(0, 1).traverse(28_000_000)  # load 0->1 heavily
    # 1->0 unaffected
    assert qpi.link(1, 0).traverse(2800) == 130


def test_backlog_accumulates(qpi):
    first = qpi.link(0, 1).traverse(28_000)
    second = qpi.link(0, 1).traverse(28_000)
    assert second > first


def test_missing_link_raises(qpi):
    with pytest.raises(KeyError):
        qpi.link(0, 0)
    with pytest.raises(KeyError):
        qpi.link(0, 5)
    with pytest.raises(KeyError, match="no interconnect link 0->5"):
        qpi.link(0, 5).traverse(64)


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
    fast = qpi.link(0, 1).traverse(28_000)
    qpi.link(0, 1).throttle(0.25)
    slow = qpi.link(0, 1).traverse(28_000)
    assert slow > fast


def test_negative_traverse_charges_nothing(qpi):
    """A rejected transfer leaves the queue, the load bucket and the
    counters as they were."""
    link = qpi.link(0, 1)
    qpi.link(0, 1).traverse(1000)
    link.env._now = 50

    def state():
        return (link._free_at, link.busy_ns, link.bytes_total,
                link._last_utilization, link._bucket_start,
                link._bucket_bytes)

    before = state()
    with pytest.raises(ValueError, match="negative transfer size -500"):
        qpi.link(0, 1).traverse(-500)
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


# ------------------------------------- memoised charges and crossings
# traverse() takes its service time from the link's bounded memo, and
# traverse() and posted_crossing_ns() keep the crossing they computed
# for loaded_crossing_ns() to return until the clock moves.  _LinkModel
# is the link with neither: its load bucket, the crossing the bucket
# inflates and its byte queue, written with the builtins.

class _LinkModel:
    def __init__(self, rate, crossing_ns, cap):
        self.rate = float(rate)
        self.base_rate = float(rate)
        self.crossing_ns = crossing_ns
        self.cap = cap
        self.start = self.bytes = 0
        self.last = 0.0
        self.free_at = self.busy = self.total = 0

    def crossing(self, now):
        elapsed = now - self.start
        if elapsed <= 0:
            u = self.last
        else:
            current = min(1.0, self.bytes * 1e9 / (self.rate * elapsed))
            weight = min(1.0, elapsed / LOAD_BUCKET_NS)
            u = (1.0 - weight) * self.last + weight * current
        return int(self.crossing_ns
                   * min(self.cap, 1.0 + 0.6 * u / max(1e-6, 1.0 - u)))

    def posted(self, now, nbytes):
        elapsed = now - self.start
        if elapsed >= LOAD_BUCKET_NS:
            self.last = min(1.0, self.bytes * 1e9
                            / (self.rate * max(1, elapsed)))
            self.start = now
            self.bytes = 0
        self.bytes += nbytes
        return self.crossing(now)

    def traverse(self, now, nbytes):
        crossing = self.posted(now, nbytes)
        start = max(now, self.free_at)
        duration = int(round(nbytes * 1e9 / self.rate))
        self.free_at = start + duration
        self.busy += duration
        self.total += nbytes
        return crossing + start - now + duration

    def throttle(self, now, factor):
        rate = self.base_rate * factor
        if self.free_at > now:
            self.free_at = now + int(round(
                (self.free_at - now) * self.rate / rate))
        self.rate = rate

    def state(self):
        return ((self.last, self.start, self.bytes),
                (self.free_at, self.busy, self.total))


def _state_of(link):
    return ((link._last_utilization, link._bucket_start,
             link._bucket_bytes),
            (link._free_at, link.busy_ns, link.bytes_total))


_SIZES = st.one_of(st.sampled_from([0, 8, 64, 512, 4096]),
                   st.integers(min_value=0, max_value=1 << 16))
_ADVANCES = st.one_of(st.just(0), st.integers(min_value=1, max_value=500),
                      st.integers(min_value=0,
                                  max_value=3 * LOAD_BUCKET_NS))


@given(st.sampled_from([12.0, 1e9]), st.lists(st.one_of(
    st.tuples(st.sampled_from(["traverse", "posted"]),
              st.integers(min_value=0, max_value=1), _SIZES),
    st.tuples(st.just("sweep"), st.integers(min_value=0, max_value=1),
              st.integers(min_value=0,
                          max_value=2 * SERVICE_MEMO_ENTRIES + 1)),
    st.tuples(st.just("advance"), _ADVANCES),
    st.tuples(st.just("throttle"), st.integers(min_value=0, max_value=1),
              st.sampled_from([0.25, 0.5, 1.0]))), max_size=60))
@settings(max_examples=300, deadline=None)
def test_memoised_link_matches_the_formulas(cap, ops):
    """Charges, doorbells, clock steps (zero included) and throttles in
    any order: every return value, queue counter and bucket field
    matches the model, every memo stays within its bound, and after
    every step each link's loaded_crossing_ns() and the pair's
    loaded_round_trip_ns() equal the crossing formula on its state."""
    env = Environment()
    qpi = Interconnect(env, num_nodes=2, bytes_per_sec_per_direction=1e9,
                       crossing_latency_ns=30, max_latency_inflation=cap)
    links = (qpi.table[0][1], qpi.table[1][0])
    models = (_LinkModel(1e9, 30, cap), _LinkModel(1e9, 30, cap))
    for op in ops:
        kind = op[0]
        if kind == "advance":
            env._now += op[1]
            continue
        link, model = links[op[1]], models[op[1]]
        if kind == "throttle":
            link.throttle(op[2])
            model.throttle(env.now, op[2])
        elif kind == "posted":
            assert link.posted_crossing_ns(op[2]) == model.posted(
                env.now, op[2])
        else:
            sizes = range(4000, 4000 + op[2]) if kind == "sweep" else (
                op[2],)
            for nbytes in sizes:
                assert link.traverse(nbytes) == model.traverse(
                    env.now, nbytes)
        for link, model in zip(links, models):
            assert _state_of(link) == model.state()
            assert len(link._service) <= SERVICE_MEMO_ENTRIES
            assert link.loaded_crossing_ns() == model.crossing(env.now)
            assert link.loaded_crossing_ns() == int(
                link.crossing_latency_ns * link.load_factor())
        assert qpi.loaded_round_trip_ns(0, 1) == (
            models[0].crossing(env.now) + models[1].crossing(env.now))


def test_kept_crossing_is_dropped_by_a_rate_change():
    """At one instant, a throttle changes what the loaded bucket reads
    as, so the crossing the last charge kept no longer holds."""
    link = InterconnectLink(Environment(), 0, 1, 1e9, 30)
    link.env._now = LOAD_BUCKET_NS // 2
    # Half a bucket in, 2 KB over 10 us loads the link to 0.2, blended
    # to u = 0.1: a 32 ns crossing.
    assert link.traverse(2000) - 2000 == link.loaded_crossing_ns() == 32
    link.throttle(0.25)           # the same bytes load it to 0.8: u = 0.4
    assert link.loaded_crossing_ns() == int(
        link.crossing_latency_ns * link.load_factor()) == 42

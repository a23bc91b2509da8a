"""Unit tests for bandwidth servers and the DRAM and QPI load buckets."""

import pytest

from repro.interconnect.link import InterconnectLink
from repro.memory.dram import DramController
from repro.sim import BandwidthServer, Environment, SimulationError
from repro.sim.resources import LOAD_BUCKET_NS


# -------------------------------------------------------- BandwidthServer

# Awkward transfer sizes (odd bytes, zero, large) and rates; at 2 GB/s
# every odd size lands on a half ns, so round-half-even decides it.
SIZES = [0, 1, 63, 64, 65, 256, 1500, 4096, 65536, 1048577, 7, 333]
RATES = [1e9, 2e9, 2.5e9, 39.0625e9 / 3, 985.0]


def test_bandwidth_service_time():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)  # 1 GB/s = 1 B/ns
    assert link.service_time(1000) == 1000
    assert link.service_time(0) == 0
    half = BandwidthServer(env, bytes_per_sec=2e9)  # 0.5 ns per byte
    assert [half.service_time(n) for n in (1, 3, 63, 65)] == [0, 2, 32, 32]


@pytest.mark.parametrize("rate", RATES)
def test_bandwidth_account_charges_service_time(rate):
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=rate)
    for n in SIZES:
        backlog = link.queueing_delay()
        busy = link.busy_ns
        delay = link.account(n)
        assert type(delay) is int
        assert delay == backlog + link.service_time(n)
        assert link.busy_ns - busy == link.service_time(n)


def test_bandwidth_transfers_queue_fifo():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    done = []

    def sender(tag, nbytes):
        yield link.account(nbytes)
        done.append((tag, env.now))

    env.process(sender("a", 1000))
    env.process(sender("b", 1000))
    env.run()
    assert done == [("a", 1000), ("b", 2000)]


def test_bandwidth_queueing_delay_visible():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    link.account(5000)
    assert link.queueing_delay() == 5000


def test_bandwidth_account_matches_transfer():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    assert link.account(100) == 100
    # second access queues behind the first
    assert link.account(100) == 200


def test_bandwidth_idle_gap_not_counted_busy():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)

    def body():
        yield link.account(100)
        yield 900

    env.process(body())
    env.run()
    assert env.now == 1000
    assert link.utilization() == pytest.approx(0.1)


def test_bandwidth_window_throughput():
    """A window over a link is the difference of its cumulative
    counters: traffic before the window opens does not count."""
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=2e9)
    seen = {}

    def body():
        yield link.account(500)
        start_ns, start_bytes = env.now, link.bytes_total
        yield link.account(2000)
        seen["bps"] = ((link.bytes_total - start_bytes) * 1e9
                       / (env.now - start_ns))

    env.process(body())
    env.run()
    assert seen["bps"] == pytest.approx(2e9)


def test_bandwidth_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthServer(env, bytes_per_sec=0)
    link = BandwidthServer(env, bytes_per_sec=1e9)
    with pytest.raises(ValueError):
        link.service_time(-1)
    with pytest.raises(ValueError):
        link.set_rate(0)


def test_bandwidth_set_rate_rescales_backlog():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    link.account(8000)                      # 8000 ns of backlog at 1 B/ns
    link.set_rate(2e9)                      # the queue now drains 2x as fast
    assert link.queueing_delay() == 4000
    assert link.account(2000) == 4000 + 1000


def test_bandwidth_set_rate_with_empty_queue():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    link.set_rate(2e9)
    assert link.queueing_delay() == 0
    assert link.account(2000) == 1000


def test_account_batch_bit_identical_to_sequential_accounts():
    env = Environment()
    a = BandwidthServer(env, bytes_per_sec=39.0625e9 / 3)  # awkward rate
    b = BandwidthServer(env, bytes_per_sec=39.0625e9 / 3)
    last = 0
    for _ in range(17):
        last = a.account(1499)
    assert b.account_batch(1499, 17) == last
    assert b.queueing_delay() == a.queueing_delay()
    assert b.bytes_total == a.bytes_total
    assert b.busy_ns == a.busy_ns


def test_account_batch_rejects_bad_args():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    with pytest.raises(ValueError):
        link.account_batch(100, 0)
    with pytest.raises(ValueError):
        link.account_batch(-1, 4)


# ------------------------------------------------------ load buckets
# DramController and InterconnectLink each keep a 20 us load bucket and
# charge and read it inline on their hot paths.  _Bucket is the reference
# they must match bit-for-bit, written with the builtins.

class _Bucket:
    def __init__(self, bytes_per_sec, bucket_ns=LOAD_BUCKET_NS):
        self.bytes_per_sec = bytes_per_sec
        self.bucket_ns = bucket_ns
        self.start = 0
        self.bytes = 0
        self.last = 0.0

    def charge(self, now, nbytes):
        elapsed = now - self.start
        if elapsed >= self.bucket_ns:
            self.last = min(1.0, self.bytes * 1e9
                            / (self.bytes_per_sec * max(1, elapsed)))
            self.start = now
            self.bytes = 0
        self.bytes += nbytes

    def load(self, now):
        elapsed = now - self.start
        if elapsed <= 0:
            return self.last
        current = min(1.0, self.bytes * 1e9 / (self.bytes_per_sec * elapsed))
        weight = min(1.0, elapsed / self.bucket_ns)
        return (1.0 - weight) * self.last + weight * current

    def state(self):
        return self.last, self.start, self.bytes


def _bucket_of(owner):
    return owner._last_utilization, owner._bucket_start, owner._bucket_bytes


def _crossing_ns(u, cap=12.0):
    return int(30 * min(cap, 1.0 + 0.6 * u / max(1e-6, 1.0 - u)))


def _links(env, bucket_ns):
    """One unthrottled 1 B/ns link and one 2 B/ns link throttled to it."""
    plain = InterconnectLink(env, 0, 1, 1e9, 30)
    throttled = InterconnectLink(env, 1, 0, 2e9, 30)
    throttled.throttle(0.5)
    for link in (plain, throttled):
        link.bucket_ns = bucket_ns
    return plain, throttled


def test_estimator_bucket_blend_outside_fluid_span():
    env = Environment()
    dram = DramController(env, 0, 1e9, miss_latency_ns=80)
    links = _links(env, LOAD_BUCKET_NS)
    dram.read(10_000)
    for link in links:
        link.traverse(10_000)
    ref = _Bucket(1e9)
    ref.charge(0, 10_000)
    # Half a bucket at 10 KB over 10 us = 1.0 capped, weighted by 0.5.
    # Two buckets on with no charge in between: the weight caps at 1.0,
    # so the read is the current bucket's own 10 KB over 40 us.
    for now, u in ((LOAD_BUCKET_NS // 2, 0.5), (LOAD_BUCKET_NS * 2, 0.25)):
        env._now = now
        assert ref.load(now) == u
        assert dram.load_factor() == 1.0 + 3.0 * u * u
        for link in links:
            assert link.load_factor() == min(12.0, 1.0 + 0.6 * u / (1 - u))
            assert link.loaded_crossing_ns() == _crossing_ns(u)
            assert _bucket_of(link) == ref.state()
    assert _bucket_of(dram) == ref.state()


#: (bucket_ns, [(now, nbytes), ...], {charge index: pinned utilization})
_ESTIMATOR_TIMELINES = [
    # Light load: no clamp engages.
    (20_000, [(0, 3000), (7_000, 3000), (21_000, 3000), (40_000, 3000),
              (40_001, 3000), (95_000, 3000)], {}),
    # Saturating (1 B/ns link): the current-bucket and rolled-bucket
    # clamps to 1.0 both run; 20_000 and 40_000 charge exactly at a
    # bucket start, the second 20_000 at zero elapsed.  At 5_000 the
    # bucket runs at 20x the rate, clamped to 1.0 before the 0.25
    # blend; at 20_000 the rolled 5x bucket reads as exactly 1.0.
    (20_000, [(0, 50_000), (5_000, 50_000), (20_000, 10_000),
              (20_000, 10_000), (30_000, 40_000), (40_000, 1_000),
              (45_000, 100), (100_000, 100)], {1: 0.25, 2: 1.0}),
    # A zero-length bucket rolls on every charge, so the rolled
    # bucket's max(1, elapsed) guard sees elapsed 0, 1 and more.
    (0, [(0, 100), (0, 100), (1, 0), (2, 1), (5, 2)], {}),
]


def test_estimator_update_utilization_matches_pair():
    """Every inlined bucket copy matches the reference after each charge:
    DramController.read/write and load_factor, and on an unthrottled
    and a throttled link traverse, the doorbell call
    (posted_crossing_ns), loaded_crossing_ns and load_factor."""
    for bucket_ns, timeline, pinned in _ESTIMATOR_TIMELINES:
        env = Environment()
        dram = DramController(env, 0, 1e9, miss_latency_ns=80)
        dram.bucket_ns = bucket_ns
        ref = _Bucket(1e9, bucket_ns)
        for i, (now, nbytes) in enumerate(timeline):
            env._now = now
            (dram.read if i % 2 else dram.write)(nbytes)
            ref.charge(now, nbytes)
            u = ref.load(now)
            assert u == pinned.get(i, u)
            assert _bucket_of(dram) == ref.state()
            assert dram.load_factor() == 1.0 + 3.0 * u * u
        for posted in (False, True):
            env = Environment()
            links = _links(env, bucket_ns)
            ref = _Bucket(1e9, bucket_ns)
            queue = BandwidthServer(env, bytes_per_sec=1e9)
            for i, (now, nbytes) in enumerate(timeline):
                env._now = now
                ref.charge(now, nbytes)
                u = ref.load(now)
                assert u == pinned.get(i, u)
                want = _crossing_ns(u)
                if not posted:
                    want += queue.account(nbytes)
                for link in links:
                    got = (link.posted_crossing_ns(nbytes) if posted
                           else link.traverse(nbytes))
                    assert got == want
                    assert _bucket_of(link) == ref.state()
                    assert link.loaded_crossing_ns() == _crossing_ns(u)
                    assert link.load_factor() == min(
                        12.0, 1.0 + 0.6 * u / max(1e-6, 1.0 - u))
                    assert (link._free_at, link.busy_ns,
                            link.bytes_total) == (
                        queue._free_at, queue.busy_ns, queue.bytes_total)


# ------------------------------------- processor sharing (DramController)
# DRAM controllers share their bandwidth among the declared long-running
# consumers; read() and write() charge the share.

def _dram(rate):
    return DramController(Environment(), 0, bytes_per_sec=rate,
                          miss_latency_ns=80)


def test_ps_server_single_flow_full_rate():
    dram = _dram(1e9)
    assert dram.read(1000) == 1000
    assert dram.write(1000) == 1000


def test_ps_server_shared_rate():
    dram = _dram(1e9)
    dram.enter()
    dram.enter()
    assert dram.read(1000) == 2000
    assert dram.write(1000) == 2000
    dram.leave()
    assert dram.read(1000) == 1000
    dram.leave()
    assert dram.write(1000) == 1000


@pytest.mark.parametrize("active", [0, 1, 3])
@pytest.mark.parametrize("rate", RATES)
def test_ps_server_account_shares_rate(active, rate):
    dram = _dram(rate)
    for _ in range(active):
        dram.enter()
    assert dram._active == active
    for n in SIZES:
        expected = int(round(n * max(1, active) * 1e9 / rate))
        for charge in (dram.read, dram.write):
            delay = charge(n)
            assert type(delay) is int
            assert delay == expected


def test_ps_server_leave_without_enter():
    dram = _dram(1e9)
    with pytest.raises(SimulationError):
        dram.leave()
    dram.enter()
    dram.leave()
    with pytest.raises(SimulationError):
        dram.leave()


def test_ps_server_tracks_bytes():
    dram = _dram(1e9)
    dram.read(123)
    dram.write(877)
    dram.read(1000)
    assert (dram.read_bytes, dram.write_bytes) == (1123, 877)
    for charge in (dram.read, dram.write):
        with pytest.raises(ValueError):
            charge(-1)
    assert (dram.read_bytes, dram.write_bytes) == (1123, 877)

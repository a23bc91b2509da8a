"""Unit tests for Resource, Store and bandwidth servers."""

import pytest

from repro.sim import (
    BandwidthServer,
    Environment,
    ProcessorSharingServer,
    Resource,
    SimulationError,
    Store,
)


# ---------------------------------------------------------------- Resource

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_release_admits_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert not r2.triggered
    res.release(r1)
    assert r2.triggered


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    holder_times = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(100)
        holder_times.append(env.now)

    def waiter():
        with res.request() as req:
            yield req
            holder_times.append(env.now)

    env.process(holder())
    env.process(waiter())
    env.run()
    assert holder_times == [100, 100]


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r2)  # cancel while queued
    res.release(r1)
    assert res.count == 0
    assert res.queue_length == 0


def test_resource_double_release_harmless():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    res.release(r1)
    res.release(r1)
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(hold)

    for tag in ("a", "b", "c"):
        env.process(user(tag, 10))
    env.run()
    assert order == ["a", "b", "c"]


# ------------------------------------------------------------------- Store

def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(consumer())
    store.put("pkt")
    env.run()
    assert got == ["pkt"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(40)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(40, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.put("a").triggered
    blocked = store.put("b")
    assert not blocked.triggered

    def consumer():
        yield store.get()

    env.process(consumer())
    env.run()
    assert blocked.triggered
    assert store.level == 1  # "b" admitted


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    for item in (1, 2, 3):
        store.put(item)
    assert store.try_get() == 1
    assert store.try_get() == 2
    assert store.try_get() == 3
    assert store.try_get() is None


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_handoff_to_waiting_getter_skips_buffer():
    env = Environment()
    store = Store(env, capacity=1)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(consumer())
    env.run()
    store.put("x")
    env.run()
    assert got == ["x"]
    assert store.level == 0


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
        yield link.transfer(nbytes)
        done.append((tag, env.now))

    env.process(sender("a", 1000))
    env.process(sender("b", 1000))
    env.run()
    assert done == [("a", 1000), ("b", 2000)]


def test_bandwidth_queueing_delay_visible():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    link.transfer(5000)
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
        yield link.transfer(100)
        yield env.timeout(900)

    env.process(body())
    env.run()
    assert env.now == 1000
    assert link.utilization() == pytest.approx(0.1)


def test_bandwidth_window_throughput():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=2e9)

    def body():
        link.reset_window()
        yield link.transfer(2000)

    env.process(body())
    env.run()
    assert link.window_throughput_bps() == pytest.approx(2e9)


def test_bandwidth_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthServer(env, bytes_per_sec=0)
    link = BandwidthServer(env, bytes_per_sec=1e9)
    with pytest.raises(ValueError):
        link.service_time(-1)


def test_bandwidth_set_rate_rescales_backlog():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    link.account(8000)                      # 8000 ns of backlog at 1 B/ns
    link.set_rate(2e9)                      # the queue now drains 2x as fast
    assert link.queueing_delay() == 4000
    assert link.account(2000) == 4000 + 1000


def test_bandwidth_set_rate_bumps_rate_epoch():
    env = Environment()
    link = BandwidthServer(env, bytes_per_sec=1e9)
    before = env.rate_epoch
    link.set_rate(5e8)
    assert env.rate_epoch == before + 1
    with pytest.raises(ValueError):
        link.set_rate(0)


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


def test_spanned_charge_keeps_full_queue_backlog():
    """Steady-interval charges are real aggregate service: flows sharing
    the server must still queue behind them (fig13's colocated PageRank
    crossing the same interconnect as a coalesced netperf train)."""
    env = Environment()
    from repro.sim.fluid import FluidRegion
    link = BandwidthServer(env, bytes_per_sec=1e9)
    region = FluidRegion(env)
    with region.interval(1_000_000, flow_id=1):
        link.account_batch(1000, 100)       # 100 us of service
    assert link.queueing_delay() == 100_000


# ----------------------------------------------------- RateEstimator

def _estimator():
    from repro.sim.resources import RateEstimator
    env = Environment()
    return env, RateEstimator(env, bytes_per_sec=1e9)


def test_estimator_bucket_blend_outside_fluid_span():
    env, est = _estimator()
    est.update(10_000)
    env._now = est.bucket_ns // 2
    # Half a bucket at 10 KB over 10 us = 1.0 capped, weighted by 0.5.
    assert est.utilization() == pytest.approx(0.5)
    # Two buckets on with no charge in between: the weight caps at 1.0,
    # so the read is the current bucket's own 10 KB over 40 us.
    env._now = est.bucket_ns * 2
    assert est.utilization() == 0.25


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
    from repro.sim.resources import RateEstimator
    for bucket_ns, timeline, pinned in _ESTIMATOR_TIMELINES:
        env = Environment()
        est1 = RateEstimator(env, bytes_per_sec=1e9, bucket_ns=bucket_ns)
        est2 = RateEstimator(env, bytes_per_sec=1e9, bucket_ns=bucket_ns)
        for i, (now, nbytes) in enumerate(timeline):
            env._now = now
            est1.update(nbytes)
            want = est1.utilization()
            assert est2.update_utilization(nbytes) == want
            assert want == pinned.get(i, want)
            assert (est2._last_utilization, est2._bucket_start,
                    est2._bucket_bytes) == (est1._last_utilization,
                                            est1._bucket_start,
                                            est1._bucket_bytes)


def test_estimator_spanned_update_registers_reservation():
    env, est = _estimator()
    region_span = 1_000_000
    env.fluid_span_ns = region_span
    env.fluid_flow_id = 42
    est.update(500_000)                     # 0.5 GB/s over the span
    env.fluid_span_ns = 0
    env.fluid_flow_id = 0
    # Another flow's read sees the interval's average rate, not a
    # lump-sum bucket spike.
    assert est.utilization() == pytest.approx(0.5)
    # Same-block charges accumulate into the slot.
    env.fluid_span_ns = region_span
    env.fluid_flow_id = 42
    est.update(250_000)
    env.fluid_span_ns = 0
    assert est.utilization() == pytest.approx(0.75)


def test_estimator_reservation_excluded_for_own_flow_in_span():
    env, est = _estimator()
    env.fluid_span_ns = 1_000_000
    env.fluid_flow_id = 42
    est.update(500_000)
    # Still inside its own interval block: the flow's fresh reservation
    # is masked (exact reads the load factor before depositing its own
    # bytes), so it sees no self-inflation from this block.
    assert est.utilization() == pytest.approx(0.0)
    env.fluid_span_ns = 0
    env.fluid_flow_id = 0


def test_estimator_reservation_expires():
    env, est = _estimator()
    env.fluid_span_ns = 1_000_000
    env.fluid_flow_id = 42
    est.update(500_000)
    env.fluid_span_ns = 0
    env._now = 2_000_000                    # past the reservation's end
    assert est.utilization() == pytest.approx(0.0)
    assert est._pending == {}               # expired slot dropped


# -------------------------------------------- ProcessorSharingServer

def test_ps_server_single_flow_full_rate():
    env = Environment()
    dram = ProcessorSharingServer(env, bytes_per_sec=1e9)
    assert dram.account(1000) == 1000


def test_ps_server_shared_rate():
    env = Environment()
    dram = ProcessorSharingServer(env, bytes_per_sec=1e9)
    dram.enter()
    dram.enter()
    assert dram.account(1000) == 2000
    dram.leave()
    assert dram.account(1000) == 1000
    dram.leave()


@pytest.mark.parametrize("active", [0, 1, 3])
@pytest.mark.parametrize("rate", RATES)
def test_ps_server_account_shares_rate(active, rate):
    env = Environment()
    dram = ProcessorSharingServer(env, bytes_per_sec=rate)
    for _ in range(active):
        dram.enter()
    for n in SIZES:
        delay = dram.account(n)
        assert type(delay) is int
        assert delay == int(round(n * max(1, active) * 1e9 / rate))


def test_ps_server_leave_without_enter():
    env = Environment()
    dram = ProcessorSharingServer(env, bytes_per_sec=1e9)
    with pytest.raises(SimulationError):
        dram.leave()


def test_ps_server_tracks_bytes():
    env = Environment()
    dram = ProcessorSharingServer(env, bytes_per_sec=1e9)
    dram.account(123)
    dram.account(877)
    assert dram.bytes_total == 1000

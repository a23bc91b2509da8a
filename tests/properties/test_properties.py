"""Property-based tests (hypothesis) on the core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.llc import LastLevelCache
from repro.memory.region import Region
from repro.nic.packet import Flow, packets_for, wire_bytes
from repro.nic.steering import ArfsTable, rss_hash
from repro.sim import BandwidthServer, Environment, SimRandom


# ------------------------------------------------------------- LLC

@st.composite
def llc_operations(draw):
    """A sequence of (op, region_index, nbytes) operations."""
    n_regions = draw(st.integers(min_value=1, max_value=6))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["load", "ddio", "invalidate"]),
                  st.integers(min_value=0, max_value=n_regions - 1),
                  st.integers(min_value=1, max_value=4096)),
        min_size=1, max_size=60))
    return n_regions, ops


@given(llc_operations())
@settings(max_examples=100, deadline=None)
def test_llc_invariants_hold_under_any_operation_sequence(case):
    n_regions, ops = case
    llc = LastLevelCache(node_id=0, capacity=8192, ddio_fraction=0.25)
    regions = [Region(name=f"r{i}", home_node=0, size=2048)
               for i in range(n_regions)]
    for op, index, nbytes in ops:
        region = regions[index]
        if op == "load":
            llc.load(region, nbytes)
        elif op == "ddio":
            absorbed = llc.ddio_write(region, nbytes)
            assert 0 <= absorbed <= min(nbytes, llc.ddio_capacity)
        else:
            llc.invalidate(region, nbytes)
        # Invariants after every step:
        assert 0 <= llc.occupied <= llc.capacity
        assert 0 <= llc._ddio_occupied <= llc.ddio_capacity
        assert llc._ddio_occupied <= llc.occupied
        for r in regions:
            resident = llc.resident_bytes(r)
            assert 0 <= resident <= r.size
        assert llc.occupied == sum(llc.resident_bytes(r) for r in regions)


# ------------------------------------------------------- BandwidthServer

@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=40),
       st.floats(min_value=1e6, max_value=1e11))
@settings(max_examples=100, deadline=None)
def test_bandwidth_server_conserves_bytes_and_orders_fifo(sizes, rate):
    env = Environment()
    server = BandwidthServer(env, rate)
    completions = []
    for nbytes in sizes:
        delay = server.account(nbytes)
        completions.append(env.now + delay)
    assert server.bytes_total == sum(sizes)
    # FIFO: completion times are non-decreasing.
    assert completions == sorted(completions)
    # Total busy time equals service for all bytes (+- rounding).
    expected = sum(int(round(n * 1e9 / rate)) for n in sizes)
    assert abs(completions[-1] - expected) <= len(sizes)


# ------------------------------------------------------------- steering

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=7)),
                min_size=1, max_size=80))
@settings(max_examples=100, deadline=None)
def test_arfs_last_update_wins(updates):
    table = ArfsTable()
    latest = {}
    for flow_index, queue in updates:
        flow = Flow.make(flow_index)
        table.update(flow, queue)
        latest[flow] = queue
    for flow, queue in latest.items():
        assert table.lookup(flow) == queue
    assert len(table) == len(latest)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_rss_hash_deterministic_and_bounded(index, buckets):
    flow = Flow.make(index)
    value = rss_hash(flow, buckets)
    assert 0 <= value < buckets
    assert value == rss_hash(flow, buckets)


# --------------------------------------------------------------- packets

@given(st.integers(min_value=0, max_value=10**7),
       st.integers(min_value=100, max_value=9000))
@settings(max_examples=200, deadline=None)
def test_packets_for_covers_message_exactly_once(message, mss):
    pkts = packets_for(message, mss)
    assert pkts >= 1
    assert pkts * mss >= message
    if message > 0:
        assert (pkts - 1) * mss < message


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_wire_bytes_monotone_and_exceeds_payload(payload):
    size = wire_bytes(payload)
    assert size > payload
    assert wire_bytes(payload + 1) >= size


# ------------------------------------------------------------------- rng

@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1,
                                                          max_size=20))
@settings(max_examples=100, deadline=None)
def test_simrandom_children_reproducible(seed, name):
    a = SimRandom(seed).child(name)
    b = SimRandom(seed).child(name)
    assert [a.random() for _ in range(5)] == [b.random()
                                              for _ in range(5)]


# ------------------------------------------------------------ event order

@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
@settings(max_examples=100, deadline=None)
def test_simulation_fires_timeouts_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(delay):
        yield delay
        fired.append(delay)

    for delay in delays:
        env.process(waiter(delay))
    env.run()
    assert fired == sorted(delays)
    assert env.now == max(delays)

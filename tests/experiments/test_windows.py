"""Measurement windows: snapshots of cumulative counters, never resets."""

import pytest

from repro.core.configurations import Testbed
from repro.experiments.runners import MembwProbe, sample_gbps, warmup_of
from repro.nic.packet import Flow
from repro.sim.engine import Environment
from repro.units import KB
from repro.workloads.netperf import TcpStream

SHORT = 10_000_000  # 10 ms simulated
LONG = 20_000_000


def _probe_readings(durations):
    """Remote Rx 64 KB on the exact tier with one probe per duration;
    returns each probe's (memory bandwidth, workload core CPU)."""
    testbed = Testbed("remote")
    workload = TcpStream(testbed.server, testbed.server_core(0),
                         Flow.make(0), 64 * KB, "rx", LONG,
                         warmup_of(LONG))
    probes = [MembwProbe(testbed, duration) for duration in durations]
    testbed.run(LONG + LONG // 5)
    return [(probe.gbps, probe.cpu(workload.thread.core))
            for probe in probes]


def test_probes_on_one_testbed_do_not_disturb_each_other():
    """Two probes whose windows open at different times each report
    exactly what they report alone on the same testbed."""
    alone = _probe_readings([SHORT]) + _probe_readings([LONG])
    together = _probe_readings([SHORT, LONG])
    assert together == alone
    assert alone[0][0] > 0


def test_sample_gbps_sums_sources_in_order():
    """Each sample is the sum over the series' sources of
    ``delta * 8 / elapsed``, added in source order, bit for bit; the
    samples land at every ``sample_ns`` up to the first multiple at or
    past ``until_ns``."""
    env = Environment()
    counters = {"a": 0, "b": 0, "c": 0, "d": 0}
    # Bytes added per source in each 80 ns interval.  The trio's first
    # interval gives 0.1, 0.2 and 0.3 Gb/s, whose float sum depends on
    # the order of addition.
    steps = [{"a": 1, "b": 2, "c": 3, "d": 7},
             {"a": 5, "b": 0, "c": 11, "d": 0},
             {"a": 13, "b": 17, "c": 0, "d": 19}]

    def traffic():
        for step in steps:
            yield 40
            for key, nbytes in step.items():
                counters[key] += nbytes
            yield 40

    def reader(key):
        return lambda: counters[key]

    env.process(traffic())
    series = sample_gbps(env, {"trio": [reader("a"), reader("b"),
                                        reader("c")],
                               "solo": [reader("d")]}, 80, 200)
    env.run()

    assert series["trio"].times_ns == [80, 160, 240]
    assert series["solo"].times_ns == [80, 160, 240]
    want = []
    for step in steps:
        total = 0
        for key in ("a", "b", "c"):
            total += step[key] * 8 / 80
        want.append(total)
    assert series["trio"].values == want
    assert want[0] != 0.3 + 0.2 + 0.1  # source order is observable
    assert series["solo"].values == [step["d"] * 8 / 80 for step in steps]


def test_sample_gbps_rejects_non_positive_interval():
    with pytest.raises(ValueError, match="sample_ns must be > 0"):
        sample_gbps(Environment(), {}, 0, 100)

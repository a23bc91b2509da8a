"""``obs --profile`` and utilization sampler unit behaviour."""

import cProfile
import io
import os
import pstats

import pytest

from repro.obs import UtilizationSampler
from repro.obs.cli import main as obs_main
from repro.sim.engine import Environment


def sleeper(env, period, count):
    for _ in range(count):
        yield period


@pytest.mark.parametrize("body", [sleeper])
def test_profiler_attributes_wall_clock_by_process(body):
    """The profiler ``obs --profile`` runs needs no knowledge of the
    kernel: each process body is its own row, one call per resumption
    straight from the kernel's queue."""
    env = Environment()
    env.process(body(env, 10, 5), name="tick")
    profiler = cProfile.Profile()
    profiler.runcall(env.run, until=100)
    stats = pstats.Stats(profiler)
    assert stats.total_tt > 0
    calls = {name: row[1] for (_, _, name), row in stats.stats.items()}
    assert calls[body.__name__] >= 5
    table = io.StringIO()
    stats.stream = table
    stats.sort_stats(pstats.SortKey.TIME).print_stats()
    assert f"({body.__name__})" in table.getvalue()


def test_obs_profile_prints_self_time_table(capsys):
    """``obs --profile`` runs the point under cProfile and prints the
    top functions by self time after the utilization table."""
    assert obs_main(["--profile"]) == 0
    out = capsys.readouterr().out
    profile = out.index("Ordered by: internal time")
    assert out.index("per-component utilization") < profile
    assert "tottime" in out[profile:]
    assert os.path.join("repro", "sim", "engine.py") in out[profile:]


def test_sampler_rate_and_gauge_channels():
    env = Environment()
    state = {"bytes": 0, "level": 0.0}

    def producer():
        while True:
            yield 50
            state["bytes"] += 500
            state["level"] = 0.25

    env.process(producer(), name="producer")
    sampler = UtilizationSampler(env, interval_ns=100)
    rate = sampler.add_rate("bytes", lambda: state["bytes"])
    gauge = sampler.add_gauge("level", lambda: state["level"])
    sampler.start(1000)
    env.run(until=2000)
    assert sampler.samples_taken == 10
    # 500 bytes / 50 ns => 10 bytes/ns per interval delta.
    assert rate.value_at(1000) == pytest.approx(10.0)
    assert gauge.value_at(1000) == 0.25
    tracks = sampler.counter_tracks()
    assert len(tracks["bytes"]) == 10


def test_sampler_stops_at_horizon():
    env = Environment()
    sampler = UtilizationSampler(env, interval_ns=300)
    sampler.add_gauge("x", lambda: 1.0)
    sampler.start(1000)
    env.run(until=5000)
    # 300, 600, 900 fit under 1000; the next tick would overshoot.
    assert sampler.samples_taken == 3


def test_sampler_rejects_duplicates_and_bad_interval():
    env = Environment()
    sampler = UtilizationSampler(env, interval_ns=10)
    sampler.add_gauge("x", lambda: 1.0)
    with pytest.raises(ValueError):
        sampler.add_rate("x", lambda: 1.0)
    with pytest.raises(ValueError):
        UtilizationSampler(env, interval_ns=0)

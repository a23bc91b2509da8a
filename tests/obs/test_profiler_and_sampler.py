"""Engine self-profiler and utilization sampler unit behaviour."""

import pytest

from repro.obs import EngineProfiler, UtilizationSampler
from repro.sim.engine import Environment


def ticker(env, period, count):
    for _ in range(count):
        yield env.timeout(period)


def sleeper(env, period, count):
    for _ in range(count):
        yield period


@pytest.mark.parametrize("body", [ticker, sleeper])
def test_profiler_attributes_wall_clock_by_process(body):
    env = Environment()
    env.process(body(env, 10, 5), name="tick")
    profiler = EngineProfiler(env)
    profiler.install()
    env.run(until=100)
    assert profiler.total_wall_s() > 0
    categories = dict(profiler.by_category)
    tick = categories.get("process:tick")
    assert tick is not None and tick[0] >= 5
    table = profiler.table()
    assert "process:tick" in table
    profiler.uninstall()
    assert "step" not in env.__dict__


def test_profiler_double_install_rejected():
    env = Environment()
    profiler = EngineProfiler(env)
    profiler.install()
    with pytest.raises(ValueError):
        profiler.install()


def test_profiler_does_not_change_event_count():
    def run(profile):
        env = Environment()
        env.process(ticker(env, 10, 20), name="tick")
        if profile:
            EngineProfiler(env).install()
        env.run(until=500)
        return env.events_processed

    assert run(True) == run(False)


def test_sampler_rate_and_gauge_channels():
    env = Environment()
    state = {"bytes": 0, "level": 0.0}

    def producer():
        while True:
            yield env.timeout(50)
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

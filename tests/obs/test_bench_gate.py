"""The obs cost gate, checked without a clock.

On the pktgen remote exact point, a disabled ObsSession must leave the
simulated event stream unchanged and run no code in repro/obs while the
point executes.  The same probe is run against an enabled session too,
to show that it catches both kinds of violation: an enabled session
adds sampler wakeups and calls into repro/obs on every sample.
"""

import os
import sys

import pytest

from repro.core.configurations import Testbed
from repro.experiments.runners import run_with_slack, warmup_of
from repro.obs import ObsSession
from repro.workloads.pktgen import Pktgen

DURATION_NS = 2_000_000


def obs_pair(obs):
    """Run the point unobserved and with *obs* attached.  Returns the
    two event counts and the names of the functions in repro/obs called
    while the observed run executes (counted with ``sys.setprofile``)."""
    def point(obs=None):
        testbed = Testbed("remote", seed=0, accuracy="exact")
        Pktgen(testbed.server, testbed.server_core(0), 256, DURATION_NS,
               warmup_of(DURATION_NS))
        if obs is not None:
            obs.attach(testbed, horizon_ns=DURATION_NS)
        return testbed

    plain = point()
    run_with_slack(plain, DURATION_NS)
    observed = point(obs)
    needle = os.sep + os.path.join("repro", "obs") + os.sep
    obs_calls = []

    def count(frame, event, arg):
        if event == "call" and needle in frame.f_code.co_filename:
            obs_calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        run_with_slack(observed, DURATION_NS)
    finally:
        sys.setprofile(None)
    return (plain.env.events_processed, observed.env.events_processed,
            obs_calls)


@pytest.fixture(scope="module")
def enabled_pair():
    return obs_pair(ObsSession(enabled=True))


def test_bench_obs_pair_disabled_leg_is_structurally_free():
    """A no-op instrument call left on a hot path shows up here as a
    nonzero call count, whatever it costs in wall time."""
    plain, observed, obs_calls = obs_pair(ObsSession(enabled=False))
    assert observed == plain
    assert obs_calls == []


def test_gate_fails_on_event_stream_change(enabled_pair):
    plain, observed, _ = enabled_pair
    assert observed > plain


def test_gate_fails_on_hot_path_obs_calls_over_ceiling(enabled_pair):
    # The ceiling is zero calls: the disabled leg must make none.
    _, _, obs_calls = enabled_pair
    assert obs_calls

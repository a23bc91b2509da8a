"""Determinism regression goldens: seeded runs must be byte-identical.

These values were captured from the seed revision of the repository
(before the event pool, delay-0 fast lane, and steering/route memoization
landed) and pin the fast-path kernel to the exact floating-point results
of the original straight-line code.  If any of these change, an
"optimization" altered simulation behaviour — that is a bug, not a
baseline refresh.

Every call names ``accuracy="exact"``: the goldens define the exact
mode, which is also each runner's default (a runner never reads the
REPRO_ACCURACY process default).  Adaptive-vs-exact fidelity is covered
by ``test_batching.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.runners import run_pktgen, run_rr, run_tcp_stream
from repro.units import KB

D = 10_000_000  # 10 ms simulated


def test_tcp_rx_ioctopus_golden():
    assert run_tcp_stream("ioctopus", 4096, "rx", D, seed=0, accuracy="exact") == {
        "throughput_gbps": 17.702430117647058,
        "membw_gbps": 0.0,
        "cpu_cores": 0.9999417647058824,
    }


def test_tcp_rx_remote_golden():
    assert run_tcp_stream("remote", 4096, "rx", D, seed=3, accuracy="exact") == {
        "throughput_gbps": 14.433340235294118,
        "membw_gbps": 46.61235952941176,
        "cpu_cores": 1.0,
    }


def test_tcp_rx_remote_stream_golden():
    """Pin the STREAM read path exactly: reader chunks go through the LLC
    record/load, the DRAM load factor and the QPI round trip, which the
    non-temporal writers of the fig15 golden never touch."""
    assert run_tcp_stream("remote", 64 * KB, "rx", D, stream_pairs=3,
                          accuracy="exact") == {
        "throughput_gbps": 16.407130352941177,
        "membw_gbps": 310.6032461176471,
        "cpu_cores": 1.0,
    }


def test_tcp_rx_ioctopus_stream_golden():
    assert run_tcp_stream("ioctopus", 64 * KB, "rx", D, stream_pairs=3,
                          accuracy="exact") == {
        "throughput_gbps": 23.870524235294116,
        "membw_gbps": 275.32849694117647,
        "cpu_cores": 1.0,
    }


def test_tcp_tx_local_golden():
    assert run_tcp_stream("local", 4096, "tx", D, seed=1, accuracy="exact") == {
        "throughput_gbps": 16.160406588235293,
        "membw_gbps": 4.357123764705882,
        "cpu_cores": 0.9981475294117647,
    }


def test_pktgen_remote_golden():
    assert run_pktgen("remote", 256, D, seed=0, accuracy="exact") == {
        "throughput_gbps": 6.214354823529412,
        "mpps": 3.0343529411764707,
        "membw_gbps": 9.34580705882353,
    }


def test_pktgen_ioctopus_golden():
    assert run_pktgen("ioctopus", 1500, D, seed=7, accuracy="exact") == {
        "throughput_gbps": 48.60988235294118,
        "mpps": 4.0508235294117645,
        "membw_gbps": 0.0,
    }


def test_tcp_rr_golden():
    assert run_rr("local", 1024, D, client_config="local", ddio=True,
                  seed=0, accuracy="exact") == 9892.324796274737


def test_tcp_rr_no_ddio_golden():
    assert run_rr("remote", 64, D, client_config="remote", ddio=False,
                  seed=2, accuracy="exact") == 9682.681093394078


def test_tcp_rr_remote_multi_packet_golden():
    """Pin the 12-packet remote latency path: each 16 KB message's DMA
    serialization behind the remote PF's window, the invalidation of the
    cached copy and the line fills of its completion reads."""
    assert run_rr("remote", 16 * KB, D, client_config="remote", ddio=True,
                  seed=0, accuracy="exact") == 43185.700507614216


def test_repeat_run_is_identical():
    """Same seed twice in one process: no kernel or model state may carry
    over from one run to the next."""
    first = run_pktgen("ioctopus", 256, D, seed=5, accuracy="exact")
    second = run_pktgen("ioctopus", 256, D, seed=5, accuracy="exact")
    assert second == first


class _Recorder:
    """Stands in for an ObsSession: keeps the testbed a runner attaches."""

    testbed = None

    def attach(self, testbed, horizon_ns=None):
        self.testbed = testbed


@pytest.mark.parametrize("run, args, kwargs, processed, scheduled", [
    # STREAM readers and non-temporal writers: nearly every event is a
    # chunk's sleep.
    (run_tcp_stream, ("remote", 64 * KB, "rx", D),
     dict(stream_pairs=3, accuracy="exact"), 81_670, 81_670),
    (run_pktgen, ("remote", 256, D), dict(seed=0, accuracy="exact"),
     479, 479),
    (run_rr, ("local", 1024, D),
     dict(client_config="local", ddio=True, seed=0, accuracy="exact"),
     1_013, 1_013),
    # The adaptive tier's train loop.
    (run_tcp_stream, ("ioctopus", 4096, "rx", D),
     dict(seed=0, accuracy="adaptive"), 30, 31),
], ids=["stream-exact", "pktgen-exact", "rr-exact", "rx-adaptive"])
def test_event_counts_golden(run, args, kwargs, processed, scheduled):
    """Pin the events behind the goldens, not just their metrics: how
    many entries the kernel dispatched and how many it ever scheduled."""
    recorder = _Recorder()
    run(*args, obs=recorder, **kwargs)
    env = recorder.testbed.env
    assert (env.events_processed, env._sequence) == (processed, scheduled)


def test_fig15_quick_point_golden():
    """Pin the event-driven NVMe path (device-core port) exactly.

    Captured when the NVMe stack moved onto the shared octo-device core
    (DmaQueuePair + DoorbellPath + CompletionPath).  The fio pipeline is
    counter-based and batching-invariant, so these hold under both
    accuracy modes; a change means the storage data path's arithmetic
    moved, not that a baseline needs refreshing.
    """
    from repro.experiments.fig15_nvme import run_fio_point

    assert run_fio_point(n_streams=0, duration_ns=2 * D) == {
        "fio_gbps": 201.326592,
        "stream_gbps": 0,
    }
    assert run_fio_point(n_streams=5, duration_ns=2 * D) == {
        "fio_gbps": 159.383552,
        "stream_gbps": 84.03968,
    }

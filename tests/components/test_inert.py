"""Default components are invisible; off-states are inert where they
cannot matter.

Two contracts from the refactor:

* a build under the *default* SystemConfig is bit-identical to the
  goldens captured before the registry existed (applying defaults flips
  no state and creates no events);
* switching a component off is exactly a no-op for figures whose
  workload never exercises it (no migrations -> arfs/xps dormant, no
  faults -> fast-failover dormant).
"""

from __future__ import annotations

from repro.experiments.runners import run_pktgen, run_tcp_stream

D = 10_000_000  # 10 ms simulated, matching the determinism goldens
SHORT = 2_000_000


def test_default_system_config_reproduces_pktgen_golden():
    """Same point and golden as test_determinism, but routed explicitly
    through the SystemConfig path (components={})."""
    assert run_pktgen("ioctopus", 1500, D, seed=7, accuracy="exact",
                      components={}) == {
        "throughput_gbps": 48.60988235294118,
        "mpps": 4.0508235294117645,
        "membw_gbps": 0.0,
    }


def test_default_system_config_reproduces_tcp_rx_golden():
    assert run_tcp_stream("ioctopus", 4096, "rx", D, seed=0,
                          accuracy="exact", components={}) == {
        "throughput_gbps": 17.702430117647058,
        "membw_gbps": 0.0,
        "cpu_cores": 0.9999417647058824,
    }


def test_dormant_components_off_leave_pktgen_bit_identical():
    """pktgen on an exact, fault-free run never migrates and never
    faults: switching these components off must not move a single
    bit."""
    baseline = run_pktgen("ioctopus", 256, SHORT, accuracy="exact")
    for name in ("arfs_migration", "xps", "mpfs_fast_failover",
                 "no_reorder_resteer"):
        assert run_pktgen("ioctopus", 256, SHORT, accuracy="exact",
                          components={name: False}) == baseline, name


def test_active_components_off_change_the_metrics():
    """The complement check: components the pktgen Rx-path *does*
    exercise must move the numbers when removed."""
    baseline = run_pktgen("ioctopus", 256, SHORT, accuracy="exact")
    without_ddio = run_pktgen("ioctopus", 256, SHORT, accuracy="exact",
                              components={"ddio": False})
    assert without_ddio["mpps"] < baseline["mpps"]
    assert without_ddio["membw_gbps"] > baseline["membw_gbps"]


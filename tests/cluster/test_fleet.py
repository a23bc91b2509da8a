"""Fleet end-to-end: determinism golden, jobs-independence, failover
claims, merged observability."""

import pytest

from repro.cluster import FleetSpec, run_fleet, run_fleet_server
from repro.experiments import sweep

#: The pinned 4-server quick fleet.  Any change to the
#: fleet planner, the client generators, the workload service loop or
#: the simulator's timing shows up here first — regenerate deliberately
#: with tools/fleet_smoke.py --print-fingerprint.
GOLDEN_SPEC = dict(servers=4, connections=8192, duration_ns=4_000_000,
                   epochs=4)
GOLDEN_SEED = 7
GOLDEN_FINGERPRINT = (
    "9b3a16025e82bbf09782d21a6aa212a401f8f994970cf641ff647c477dacf9b0")


@pytest.fixture(scope="module")
def golden_fleet():
    return run_fleet(FleetSpec(**GOLDEN_SPEC), master_seed=GOLDEN_SEED)


def test_golden_fleet_fingerprint(golden_fleet):
    assert golden_fleet.fingerprint() == GOLDEN_FINGERPRINT


def test_fleet_is_deterministic_across_repeats(golden_fleet):
    again = run_fleet(FleetSpec(**GOLDEN_SPEC), master_seed=GOLDEN_SEED)
    assert again.fingerprint() == golden_fleet.fingerprint()
    assert again.servers == golden_fleet.servers


def test_fleet_fingerprint_independent_of_jobs(golden_fleet):
    """The headline determinism claim: process sharding is invisible.

    jobs=2 genuinely fans out (the fleet executor's own predicate skips
    the single-CPU serial fallback), so this exercises real worker
    processes and compares against the inline run bit for bit.
    """
    try:
        parallel = run_fleet(FleetSpec(**GOLDEN_SPEC),
                             master_seed=GOLDEN_SEED, jobs=2)
    finally:
        sweep.shutdown_pool()
    assert parallel.fingerprint() == golden_fleet.fingerprint()


def test_transaction_conservation(golden_fleet):
    assert golden_fleet.planned == (golden_fleet.served
                                    + golden_fleet.lost)
    assert golden_fleet.lost == 0
    assert golden_fleet.digest.count == golden_fleet.served
    assert golden_fleet.served > 0
    assert sum(d.count for d in golden_fleet.epoch_digests.values()) == (
        golden_fleet.served)


def test_pf_flap_survives_under_ioctopus_only():
    base = dict(servers=2, connections=4096, duration_ns=4_000_000,
                epochs=4, pf_flap=(0, 1_500_000, 1_000_000))
    ioct = run_fleet(FleetSpec(config="ioctopus", **base), master_seed=1)
    assert ioct.dead_servers() == []
    assert ioct.lost == 0
    # The team driver really failed over and recovered (2 fault events).
    assert ioct.servers[0]["failover_events"] == 2

    remote = run_fleet(FleetSpec(config="remote", **base), master_seed=1)
    assert remote.dead_servers() == [0]
    assert remote.lost > 0
    assert remote.servers[0]["died_at"] == 1_500_000
    # The survivors inherit the dead server's blocks next epoch.
    later = remote.servers[1]["conns_by_epoch"]
    assert later[-1] > later[0]


def test_server_down_truncates_and_reroutes():
    spec = FleetSpec(servers=3, connections=4096, duration_ns=4_000_000,
                     epochs=4, server_down=(1, 2_000_000))
    fleet = run_fleet(spec, master_seed=2)
    assert fleet.dead_servers() == [1]
    assert fleet.lost > 0
    dead = fleet.servers[1]
    assert dead["served"] < dead["planned"]
    # Post-death epochs route nothing to the corpse.
    assert dead["conns_by_epoch"][-1] == 0


def test_merged_registry_namespaces_and_rollups(golden_fleet):
    registry = golden_fleet.registry()
    names = registry.names()
    for server in range(4):
        assert any(name.startswith(f"srv{server}.") for name in names)
    values = registry.collect()
    assert values["fleet.txn.served"] == golden_fleet.served
    assert values["fleet.dead_servers"] == 0
    assert values["fleet.latency.p99_ns"] == golden_fleet.percentile(99)


def test_prometheus_export_carries_server_labels(golden_fleet):
    text = golden_fleet.prometheus()
    assert 'server="0"' in text
    assert 'server="3"' in text
    assert "repro_fleet_txn_served" in text
    # Per-server samples are labelled, fleet rollups are not.
    for line in text.splitlines():
        if line.startswith("repro_fleet_"):
            assert "server=" not in line


def test_shards_ship_series_and_obs(golden_fleet):
    shard = golden_fleet.servers[0]
    assert shard["obs"], "obs collect must ship with the shard"
    assert "srv.qpi.0to1.util" in shard["series"]
    assert len(shard["series"]["srv.qpi.0to1.util"]) > 1


def test_single_server_result_is_plain_json():
    import json
    spec = FleetSpec(servers=2, connections=1024, duration_ns=2_000_000,
                     epochs=2)
    shard = run_fleet_server(0, spec.to_dict(), master_seed=0)
    json.dumps(shard)  # the sweep cache contract
    assert shard["planned"] == shard["served"] + shard["lost"]

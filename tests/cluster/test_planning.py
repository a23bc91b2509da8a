"""Fleet planning: one run_fleets call generates each client population
once, computes the LB homes once per alive set, and ships every server
point only its JSON slice of that plan."""

import json

from repro.cluster import FleetSpec, run_fleet, run_fleet_server, run_fleets
from repro.cluster import server
from repro.cluster.clients import generate_block
from repro.cluster.lb import blocks_for
from repro.cluster.server import FleetPlanner
from repro.experiments import sweep

SEED = 5
#: Fewer connections than blocks, so 112 of the 512 blocks are empty.
#: SPEC_B shares SPEC_A's population; its server 1 dies in epoch 0, so
#: the survivors inherit its blocks in epoch 1 (planned per server, they
#: would generate them again).
SPEC_A = FleetSpec(servers=3, connections=400, duration_ns=2_000_000,
                   epochs=2)
SPEC_B = FleetSpec(servers=3, connections=400, duration_ns=2_000_000,
                   epochs=2, config="remote", server_down=(1, 500_000))


def _count_blocks(monkeypatch):
    calls = []
    real = server.generate_block

    def counting(master_seed, block_id, size, spec):
        calls.append(block_id)
        return real(master_seed, block_id, size, spec)

    monkeypatch.setattr(server, "generate_block", counting)
    return calls


def test_one_call_generates_each_non_empty_block_once(monkeypatch):
    calls = _count_blocks(monkeypatch)
    run_fleets([SPEC_A, SPEC_B], master_seed=SEED, jobs=1)
    assert sorted(calls) == list(range(SPEC_A.connections))
    # Nothing outlives the call: a second one pays the same again.
    calls.clear()
    run_fleets([SPEC_A, SPEC_B], master_seed=SEED, jobs=1)
    assert sorted(calls) == list(range(SPEC_A.connections))


def test_population_key_separates_populations(monkeypatch):
    calls = _count_blocks(monkeypatch)
    planner = FleetPlanner(SEED)
    specs = [SPEC_A, SPEC_B,
             FleetSpec(**dict(SPEC_A.to_dict(), zipf_s=0.5)),
             FleetSpec(**dict(SPEC_A.to_dict(), churn_lifetime_ns=1000))]
    for spec in specs:
        for server_id in range(spec.servers):
            planner.server_slice(spec, server_id)
    assert len(calls) == 3 * SPEC_A.connections


def test_slice_matches_the_lb_and_the_block_generator():
    planner = FleetPlanner(SEED)
    sizes = SPEC_B.block_sizes()
    for server_id in range(SPEC_B.servers):
        plan = planner.server_slice(SPEC_B, server_id)
        assert plan["blocks"] == [blocks_for(SPEC_B, server_id, epoch)
                                  for epoch in range(SPEC_B.epochs)]
        served = {block for blocks in plan["blocks"] for block in blocks}
        assert set(plan["aggregates"]) == {
            str(block) for block in served if sizes[block]}
        for key, aggregates in plan["aggregates"].items():
            profile = generate_block(SEED, int(key), sizes[int(key)],
                                     SPEC_B)
            assert aggregates == {
                "connections": profile.connections,
                "total_weight": profile.total_weight,
                "slow_weight": profile.slow_weight,
                "churn_by_epoch": list(profile.churn_by_epoch)}
    # The dead server serves nothing once the LB has noticed.
    assert planner.server_slice(SPEC_B, 1)["blocks"][1] == []


def test_point_fed_the_parent_slice_matches_self_planning():
    planner = FleetPlanner(SEED)
    for server_id in range(SPEC_B.servers):
        # The slice reaches a worker process, or the cache, as JSON.
        shipped = json.loads(json.dumps(
            planner.server_slice(SPEC_B, server_id)))
        fed = run_fleet_server(server_id, SPEC_B.to_dict(), SEED,
                               plan_slice=shipped)
        alone = run_fleet_server(server_id, SPEC_B.to_dict(), SEED)
        assert fed == alone


def test_batch_matches_separate_runs_inline_and_sharded():
    alone = [run_fleet(spec, master_seed=SEED).fingerprint()
             for spec in (SPEC_A, SPEC_B)]
    inline = run_fleets([SPEC_A, SPEC_B.to_dict()], master_seed=SEED,
                        jobs=1)
    try:
        sharded = run_fleets([SPEC_A, SPEC_B], master_seed=SEED, jobs=2)
    finally:
        sweep.shutdown_pool()
    assert [fleet.spec for fleet in inline] == [SPEC_A, SPEC_B]
    assert [fleet.fingerprint() for fleet in inline] == alone
    assert [fleet.fingerprint() for fleet in sharded] == alone

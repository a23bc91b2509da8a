"""Fleet planning: one run_fleets call generates each client population
once, computes the LB homes once per alive set, ships every server
point only its JSON slice of that plan, and simulates each distinct
server point once."""

import json

from repro.cluster import FleetSpec, run_fleet, run_fleet_server, run_fleets
from repro.cluster import executor, server
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
#: SPEC_A with server 0's serving PF flapping: the team driver rides it
#: out, so the LB sees no death and servers 1 and 2 are SPEC_A's.
SPEC_FLAP = FleetSpec(servers=3, connections=400, duration_ns=2_000_000,
                      epochs=2, pf_flap=(0, 600_000, 400_000))
#: SPEC_A with server 0 dead in epoch 0: every server's plan differs.
SPEC_DOWN = FleetSpec(servers=3, connections=400, duration_ns=2_000_000,
                      epochs=2, server_down=(0, 700_000))
BATCH = [SPEC_A, SPEC_FLAP, SPEC_DOWN]


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
    # BATCH's pf-flap fleet gets two of its three shards from SPEC_A's.
    for batch in ([SPEC_A, SPEC_B], BATCH):
        alone = [run_fleet(spec, master_seed=SEED).fingerprint()
                 for spec in batch]
        # A batch may mix specs and their dicts.
        inline = run_fleets(batch[:1] + [spec.to_dict()
                                         for spec in batch[1:]],
                            master_seed=SEED, jobs=1)
        try:
            sharded = run_fleets(batch, master_seed=SEED, jobs=2)
        finally:
            sweep.shutdown_pool()
        assert len(set(alone)) == len(batch)
        assert [fleet.spec for fleet in inline] == batch
        assert [fleet.fingerprint() for fleet in inline] == alone
        assert [fleet.fingerprint() for fleet in sharded] == alone


def test_batch_simulates_each_distinct_server_point_once(monkeypatch):
    calls = []
    real = executor.run_fleet_server

    def counting(server_id, spec, **kwargs):
        calls.append((server_id, FleetSpec.from_dict(spec)))
        return real(server_id, spec, **kwargs)

    monkeypatch.setattr(executor, "run_fleet_server", counting)
    fleets = run_fleets(BATCH, master_seed=SEED, jobs=1)
    # SPEC_A's three servers, SPEC_FLAP's flapping server 0, and
    # SPEC_DOWN's three: 7 simulations for 9 server shards.
    assert sorted((server_id, BATCH.index(spec))
                  for server_id, spec in calls) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2)]
    for server_id in (1, 2):
        assert fleets[1].servers[server_id] == fleets[0].servers[server_id]
    assert fleets[1].servers[0] != fleets[0].servers[0]
    # Nothing outlives the call: a second one simulates them again.
    calls.clear()
    run_fleets(BATCH, master_seed=SEED, jobs=1)
    assert len(calls) == 7


def test_fault_aimed_at_another_server_leaves_the_shard_unchanged():
    # Server 2 keeps the unfaulted fleet's slice: a fault elsewhere may
    # reach it only through that slice.
    plan_slice = FleetPlanner(SEED).server_slice(SPEC_A, 2)
    for config in ("ioctopus", "remote"):
        base = FleetSpec(**dict(SPEC_A.to_dict(), config=config))
        view = executor.server_view(base, 2)
        want = run_fleet_server(2, base.to_dict(), SEED,
                                plan_slice=plan_slice)
        for faults in ({"pf_flap": (0, 600_000, 400_000)},
                       {"server_down": (1, 500_000)}):
            faulted = FleetSpec(**dict(base.to_dict(), **faults))
            assert executor.server_view(faulted, 2) == view
            assert run_fleet_server(2, faulted.to_dict(), SEED,
                                    plan_slice=plan_slice) == want

"""The process-sharded fleet executor.

One server = one sweep point = one worker process.  The executor reuses
the figure sweeps' persistent :mod:`repro.experiments.sweep` machinery —
the long-lived ``ProcessPoolExecutor``, the dotted-path invocation, the
on-disk code+params cache — but swaps in its own fan-out predicate: a
fleet point is a *whole server simulation* (testbed build, a hundred
thousand regenerated client connections, the full event run), heavy
enough that process fan-out pays off whenever more than one worker is
asked for, including on hosts where the lightweight figure points would
take the serial fallback.

No runtime coordination happens between workers: the LB assignment
timeline, health reactions and arrival schedules are all planned
deterministically from (spec, master_seed), with cross-server coupling
quantized to epoch boundaries (see :mod:`repro.cluster.lb`).  That is
why the merged result — and its fingerprint — is identical for any
``jobs`` value.

The parent plans what servers share, once per call: :func:`run_fleets`
generates each distinct client population once and computes the LB's
block homes once per distinct alive set (a
:class:`~repro.cluster.server.FleetPlanner`), then runs every distinct
server point of every fleet through one ``sweep_map`` call, each point
carrying only its JSON slice of that plan.  A shard is a pure function
of its server id, the master seed, the ``blame`` flag, its plan slice
and the spec as that server sees it (:func:`server_view`), so servers
of different fleets that agree on all of these share one simulation and
one shard: fig16's ioctopus pf-flap fleet differs from the baseline only
on server 0, and its batch runs 41 server simulations rather than 48.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

from repro.cluster.merge import FleetResult
from repro.cluster.server import FleetPlanner, run_fleet_server
from repro.cluster.spec import FleetSpec
from repro.experiments.sweep import sweep_map


def fleet_parallel_when(npoints: int, jobs: int) -> bool:
    """Fan out whenever there is anything to share: fleet points are
    heavyweight, so the MIN_PARALLEL_POINTS / cpu-count guards of the
    figure sweeps would only serialize real work (and hide cross-process
    determinism bugs on single-CPU dev hosts)."""
    return jobs > 1 and npoints > 1


def server_view(spec: FleetSpec, server_id: int) -> Dict:
    """The spec as one server's simulation reads it: its own death and
    survivable PF flap in place of the fleet's failure scenario.  A
    fault aimed at another server reaches this one only through the LB,
    that is through its plan slice."""
    return dict(spec.to_dict(), server_down=None, pf_flap=None,
                death_ns=spec.death_ns(server_id),
                flap_for=spec.flap_for(server_id))


def run_fleets(specs: Sequence[Union[FleetSpec, dict]],
               master_seed: int = 0,
               jobs: Optional[int] = None,
               cache_dir: Optional[str] = None,
               blame: bool = False) -> List[FleetResult]:
    """Simulate several fleets as one sweep; one merged result per spec,
    in order.

    Fleets that share a client population (same master seed,
    connections, duration, epochs and client knobs) generate it once,
    and a server point several fleets ask for (same :func:`server_view`,
    same plan slice) is simulated once, its shard handed to each of
    them.  Neither the plan nor the shards outlive the call.
    ``blame=True`` ships a transaction-domain blame shard per server
    (merged into ``FleetResult.blame``); opt-in because it changes the
    shard payloads and hence the fleet fingerprint."""
    specs = [FleetSpec.from_dict(spec) if isinstance(spec, dict) else spec
             for spec in specs]
    planner = FleetPlanner(master_seed)
    points: List[Dict] = []
    # point key -> index into ``points`` (and into the shards).
    index_of: Dict[str, int] = {}
    fleet_points: List[List[int]] = []
    for spec in specs:
        spec_dict = spec.to_dict()
        indices = []
        for server in range(spec.servers):
            point = dict(server_id=server, spec=spec_dict,
                         master_seed=master_seed,
                         plan_slice=planner.server_slice(spec, server))
            if blame:
                point["blame"] = True
            key = json.dumps(dict(point, spec=server_view(spec, server)),
                             sort_keys=True)
            if key not in index_of:
                index_of[key] = len(points)
                points.append(point)
            indices.append(index_of[key])
        fleet_points.append(indices)
    shards = sweep_map(run_fleet_server, points, jobs=jobs,
                       cache_dir=cache_dir,
                       parallel_when=fleet_parallel_when)
    return [FleetResult(spec, master_seed, [shards[i] for i in indices])
            for spec, indices in zip(specs, fleet_points)]


def run_fleet(spec: Union[FleetSpec, dict], master_seed: int = 0,
              jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              blame: bool = False) -> FleetResult:
    """Simulate the whole fleet and merge the per-server shards (the
    one-spec :func:`run_fleets`)."""
    return run_fleets([spec], master_seed, jobs, cache_dir, blame)[0]

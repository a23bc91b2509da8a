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
:class:`~repro.cluster.server.FleetPlanner`), then runs every server of
every fleet through one ``sweep_map`` call, each point carrying only its
JSON slice of that plan.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Union

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


def run_fleets(specs: Sequence[Union[FleetSpec, dict]],
               master_seed: int = 0,
               jobs: Optional[int] = None,
               cache_dir: Optional[str] = None,
               blame: bool = False) -> List[FleetResult]:
    """Simulate several fleets as one sweep; one merged result per spec,
    in order.

    Fleets that share a client population (same master seed,
    connections, duration, epochs and client knobs) generate it once,
    and the plan lives only for this call.  ``blame=True`` ships a
    transaction-domain blame shard per server (merged into
    ``FleetResult.blame``); opt-in because it changes the shard payloads
    and hence the fleet fingerprint."""
    specs = [FleetSpec.from_dict(spec) if isinstance(spec, dict) else spec
             for spec in specs]
    planner = FleetPlanner(master_seed)
    points = []
    for spec in specs:
        spec_dict = spec.to_dict()
        for server in range(spec.servers):
            point = dict(server_id=server, spec=spec_dict,
                         master_seed=master_seed,
                         plan_slice=planner.server_slice(spec, server))
            if blame:
                point["blame"] = True
            points.append(point)
    shards = iter(sweep_map(run_fleet_server, points, jobs=jobs,
                            cache_dir=cache_dir,
                            parallel_when=fleet_parallel_when))
    return [FleetResult(spec, master_seed, list(islice(shards, spec.servers)))
            for spec in specs]


def run_fleet(spec: Union[FleetSpec, dict], master_seed: int = 0,
              jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              blame: bool = False) -> FleetResult:
    """Simulate the whole fleet and merge the per-server shards (the
    one-spec :func:`run_fleets`)."""
    return run_fleets([spec], master_seed, jobs, cache_dir, blame)[0]

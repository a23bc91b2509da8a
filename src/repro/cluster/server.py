"""One fleet server = one sweep point: plan, simulate, ship JSON back.

:func:`run_fleet_server` is the module-level function the fleet executor
fans out across worker processes (picklable by dotted path, JSON
kwargs, JSON result — the same contract every figure point runner
honours, so the sweep executor's disk cache works unchanged).  It

1. **plans** the server's epochs from its slice of the fleet plan —
   which blocks the LB routes here each epoch (including blocks
   inherited from servers that died in earlier epochs) and those
   blocks' aggregates, planned once per call for every server by the
   parent's :class:`FleetPlanner` (or here, when called on its own) —
   plus each epoch's arrival schedule (block aggregates x diurnal
   curve, plus incast bursts) and the death truncation if this server
   fails;
2. **simulates** a full octoNIC :class:`Testbed` serving that schedule
   (injecting a live PF flap when the spec says this server's serving
   PF flaps and the team driver can ride it out);
3. **ships** per-epoch latency digests, throughput/churn/loss counters,
   the obs registry's collected values and the utilization time series
   as one plain-JSON dict the merge layer folds into the fleet view.
"""

from __future__ import annotations

import gc
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.cluster.lb import alive_servers, home_blocks
from repro.cluster.clients import (diurnal_factor, generate_block,
                                   incast_schedule, population_key,
                                   server_seed)
from repro.cluster.spec import FleetSpec
from repro.cluster.workload import FleetServerWorkload, WorkerSegment
from repro.core.configurations import Testbed
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs.session import ObsSession

#: Drain slack after the arrival window, as a divisor of the duration.
SLACK_DIVISOR = 3

#: The PF that serves an "ioctopus" fleet workload (remote-node
#: placement steered through the node-local PF, as in fig_failover).
SERVING_PF = 1


class FleetPlanner:
    """The planning one fleet call shares across every server of every
    fleet it runs: each distinct client population is generated once
    (one :func:`generate_block` per non-empty block, keyed by
    :func:`population_key`), and the LB's block homes are computed once
    per distinct alive set.

    A planner lives for one call, never for the process: a replayed run
    must regenerate its populations, and each run must pay what a fresh
    one pays.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        #: population key -> block -> that block's aggregates.
        self._populations: Dict[Tuple, Dict[int, Dict]] = {}
        #: alive set -> server -> the blocks it is home to.
        self._homes: Dict[FrozenSet[int], Dict[int, List[int]]] = {}

    def server_slice(self, spec: FleetSpec, server_id: int) -> Dict:
        """What one server point consumes, as plain JSON: per epoch, the
        blocks the LB routes to it; per non-empty block among them, its
        connections, total and slow weight and churn per epoch."""
        sizes = spec.block_sizes()
        population = self._populations.setdefault(
            population_key(self.master_seed, spec), {})
        blocks_by_epoch: List[List[int]] = []
        aggregates: Dict[str, Dict] = {}
        for epoch in range(spec.epochs):
            alive = alive_servers(spec, epoch)
            blocks: List[int] = []
            if server_id in alive:
                key = frozenset(alive)
                if key not in self._homes:
                    self._homes[key] = home_blocks(alive)
                blocks = self._homes[key][server_id]
            blocks_by_epoch.append(blocks)
            for block in blocks:
                if sizes[block] == 0:
                    continue
                if block not in population:
                    profile = generate_block(self.master_seed, block,
                                             sizes[block], spec)
                    population[block] = {
                        "connections": profile.connections,
                        "total_weight": profile.total_weight,
                        "slow_weight": profile.slow_weight,
                        "churn_by_epoch": list(profile.churn_by_epoch)}
                aggregates[str(block)] = population[block]
        return {"blocks": blocks_by_epoch, "aggregates": aggregates}


class ServerPlan:
    """Everything one server's simulation consumes, planned up front.

    ``plan_slice`` is the server's :meth:`FleetPlanner.server_slice`;
    without one the server plans it for itself."""

    def __init__(self, spec: FleetSpec, server_id: int, master_seed: int,
                 plan_slice: Optional[Dict] = None):
        if plan_slice is None:
            plan_slice = FleetPlanner(master_seed).server_slice(
                spec, server_id)
        self.death = spec.death_ns(server_id)
        sizes = spec.block_sizes()
        incasts = incast_schedule(master_seed, server_id, spec)
        aggregates = plan_slice["aggregates"]
        self.segments: List[List[WorkerSegment]] = [
            [] for _ in range(spec.workers)]
        self.planned = 0
        self.conns_by_epoch: List[int] = []
        self.churn_by_epoch: List[int] = []
        self.slow_by_epoch: List[float] = []
        for e, (start, end) in enumerate(spec.epoch_bounds()):
            blocks = plan_slice["blocks"][e]
            conns = 0
            churn = 0
            slow_w = 0.0
            total_w = 0.0
            for b in blocks:
                if sizes[b] == 0:
                    continue
                agg = aggregates[str(b)]
                conns += agg["connections"]
                churn += agg["churn_by_epoch"][e]
                slow_w += agg["slow_weight"]
                total_w += agg["total_weight"]
            self.conns_by_epoch.append(conns)
            self.churn_by_epoch.append(churn)
            slow_fraction = slow_w / total_w if total_w else 0.0
            self.slow_by_epoch.append(slow_fraction)
            rate_tps = (conns * spec.conn_rate_tps
                        * diurnal_factor(spec, (start + end) // 2))
            count = int(rate_tps * (end - start) / 1e9)
            span = end - start
            smooth = [start + ((2 * j + 1) * span) // (2 * count)
                      for j in range(count)]
            bursts = incasts[e] if blocks else []
            self.planned += count + sum(fanin for _, fanin in bursts)
            # Deal the smooth schedule round-robin across workers and
            # each incast burst wholly to one worker (a burst hammers
            # one accept queue — that is what makes it an incast).
            for w in range(spec.workers):
                arrivals = smooth[w::spec.workers]
                for burst_i, (t, fanin) in enumerate(bursts):
                    if burst_i % spec.workers == w:
                        arrivals.extend([t] * fanin)
                arrivals.sort()
                self.segments[w].append(WorkerSegment(
                    e, start, end, tuple(arrivals), slow_fraction))


def run_fleet_server(server_id: int, spec: Union[FleetSpec, Dict],
                     master_seed: int = 0,
                     blame: bool = False,
                     plan_slice: Optional[Dict] = None) -> Dict:
    """Simulate one fleet server end to end; plain-JSON result.

    ``blame=True`` additionally ships the server's transaction-domain
    latency-blame shard (queue wait vs service time) for the fleet-wide
    merge.  It is opt-in because the extra ``blame`` key changes the
    shard payload — and therefore the fleet fingerprint.

    ``plan_slice`` is this server's slice of the parent's fleet plan
    (:meth:`FleetPlanner.server_slice`); without one the server plans
    its own, with the same result."""
    if isinstance(spec, dict):
        spec = FleetSpec.from_dict(spec)
    # The previous point's Testbed is held by reference cycles, which
    # only the collector frees.  Left to the interpreter's schedule, a
    # batch of points stacks up dead testbeds and peak memory grows from
    # batch to batch.  Collecting the young generations here frees it in
    # well under a millisecond; a full collection costs over ten times
    # as much.
    gc.collect(1)
    plan = ServerPlan(spec, server_id, master_seed, plan_slice)
    testbed = Testbed(spec.config,
                      seed=server_seed(master_seed, server_id))
    host = testbed.server
    cores = host.machine.cores_on_node(
        testbed.server_workload_node)[:spec.workers]
    workload = FleetServerWorkload(
        host, cores, plan.segments, spec.set_fraction, spec.value_bytes,
        spec.slow_factor, spec.duration_ns, dead_ns=plan.death)

    flap = spec.flap_for(server_id)
    failover_events = 0
    if flap is not None:
        fault_plan = FaultPlan()
        fault_plan.add(FaultSpec("pf_down", flap[0], flap[1],
                                 pf_id=SERVING_PF))
        injector = FaultInjector(testbed.env, fault_plan, device=host.nic,
                                 wire=testbed.wire, machine=host.machine,
                                 rng=host.machine.rng)
        injector.start()

    obs = ObsSession(enabled=True, blame=blame)
    obs.attach(testbed, horizon_ns=spec.duration_ns)

    horizon = spec.duration_ns + spec.duration_ns // SLACK_DIVISOR
    if plan.death is not None:
        horizon = min(horizon, plan.death + 1)
    testbed.run(horizon)
    if flap is not None:
        failover_events = len(injector.events)

    served = workload.served
    digest = workload.digest()
    shard = {
        "server": server_id,
        "config": spec.config,
        "died_at": plan.death,
        "failover_events": failover_events,
        "conns_by_epoch": plan.conns_by_epoch,
        "churn_by_epoch": plan.churn_by_epoch,
        "slow_by_epoch": [round(s, 6) for s in plan.slow_by_epoch],
        "planned": plan.planned,
        "served": served,
        "lost": plan.planned - served,
        "ktps": round(workload.transactions_ktps(), 3),
        "epoch_digests": {str(e): d.to_dict()
                          for e, d in
                          sorted(workload.epoch_digests.items())},
        "digest": digest.to_dict(),
        "obs": obs.collect(include_detail=False),
        "series": ({name: [[t, round(v, 6)] for t, v in points]
                    for name, points in
                    obs.sampler.counter_tracks().items()}
                   if obs.sampler is not None else {}),
    }
    if blame:
        shard["blame"] = obs.blame.to_dict()
    return shard

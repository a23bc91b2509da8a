"""Client fleets: deterministic populations behind the load balancer.

Every connection in the fleet is generated — never stored — from the
master seed: block ``b``'s population is a pure function of
``SimRandom(master_seed, "fleet").child("block-b")``, so any worker
process can regenerate any block it is asked to serve, and the same
master seed yields the same million-connection fleet no matter how the
blocks are sharded across processes.

Per connection the generator draws a Zipf-like request weight (hot
clients ask more), a slow-reader flag, and a churn lifetime; per block
these reduce to the aggregates the server simulation actually consumes
(total/slow weight, per-epoch churn events), which is what keeps a
million connections cheap — the per-connection draws happen once per
block per run, the simulation itself works on block aggregates.

The load curve composes three client behaviours:

* **diurnal**: one compressed "day" over the run — the arrival rate
  swings ``(1-A)..(1+A)`` following a sine, quantized per epoch;
* **churn**: connections die (exponential lifetimes) and are instantly
  replaced by an identical newcomer, so the active count is constant
  and churn is an *event count* the fleet metrics export;
* **incast**: per server per epoch, bursts of ``incast_fanin``
  synchronized arrivals on top of the smooth schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.spec import FleetSpec
from repro.sim.rng import SimRandom

#: Cap on a single connection's Zipf weight (keeps one pathological
#: draw from dominating a whole block).
MAX_CONN_WEIGHT = 10_000.0


def fleet_rng(master_seed: int) -> SimRandom:
    """The fleet's root stream; everything derives from named children."""
    return SimRandom(master_seed, "fleet")


def server_seed(master_seed: int, server_id: int) -> int:
    """Machine seed for one server's Testbed — a named child of the
    fleet root, so per-server streams are decorrelated and independent
    of which worker process builds them."""
    return fleet_rng(master_seed).child(f"server-{server_id}").seed


@dataclass(frozen=True)
class BlockProfile:
    """One block's population, reduced to simulation aggregates."""

    block_id: int
    connections: int
    #: Sum of per-connection request weights (normalized: mean 1).
    total_weight: float
    #: Weight carried by slow-reader connections.
    slow_weight: float
    #: Largest single connection weight (Zipf skew witness).
    top_weight: float
    #: Churn events (connection replacements) per epoch.
    churn_by_epoch: Tuple[int, ...]


def population_key(master_seed: int, spec: FleetSpec) -> Tuple:
    """Everything :func:`generate_block` reads from the seed and the
    spec: fleets with equal keys have the same client population, block
    for block (block sizes follow from ``connections``)."""
    return (master_seed, spec.connections, spec.duration_ns, spec.epochs,
            spec.zipf_s, spec.slow_fraction, spec.churn_lifetime_ns)


def epoch_edges(spec: FleetSpec) -> List[int]:
    """The interior epoch boundaries, ascending: for
    ``0 <= t < duration_ns``, ``bisect_right(epoch_edges(spec), t)`` is
    ``spec.epoch_of(t)``."""
    return [end for _, end in spec.epoch_bounds()[:-1]]


def generate_block(master_seed: int, block_id: int, size: int,
                   spec: FleetSpec) -> BlockProfile:
    """Regenerate block ``block_id``'s population from the master seed."""
    if size <= 0:
        return BlockProfile(block_id, 0, 0.0, 0.0, 0.0,
                            tuple([0] * spec.epochs))
    rng = fleet_rng(master_seed).child(f"block-{block_id}")
    # One batch draw per attribute keeps the stream layout explicit (and
    # replayable): weights, slow flags, churn births, churn lifetimes.
    u_weight = rng.batch(size)
    u_slow = rng.batch(size)
    u_birth = rng.batch(size)
    u_life = rng.batch(size)

    if spec.zipf_s > 0:
        exponent = -(1.0 / spec.zipf_s)
        weights = [(1.0 - u) ** exponent for u in u_weight]
        # Few draws reach the cap (fig16's 1,048,576 connections hold
        # 52, in 49 of its 512 blocks), so clamp only a block with one.
        if max(weights) > MAX_CONN_WEIGHT:
            weights = [min(w, MAX_CONN_WEIGHT) for w in weights]
    else:
        weights = [1.0] * size
    scale = size / sum(weights)
    weights = [w * scale for w in weights]

    slow_weight = 0.0
    for u, w in zip(u_slow, weights):
        if u < spec.slow_fraction:
            slow_weight += w

    duration = spec.duration_ns
    edges = epoch_edges(spec)
    churn = [0] * spec.epochs
    # Float operands keep the products float-by-float (an int operand
    # converts to the same double on every use), and on these
    # non-negative products floor equals int().
    duration_f = float(duration)
    neg_mean_life = float(-spec.mean_lifetime_ns())
    log = math.log
    floor = math.floor
    for ub, ul in zip(u_birth, u_life):
        # Exponential lifetime; 1-ul is in (0, 1] so log is finite.
        death = floor(ub * duration_f) + floor(neg_mean_life * log(1.0 - ul))
        if death < duration:
            churn[bisect_right(edges, death)] += 1

    return BlockProfile(block_id, size, sum(weights), slow_weight,
                        max(weights), tuple(churn))


def diurnal_factor(spec: FleetSpec, t_ns: int) -> float:
    """Rate multiplier at ``t_ns``: one compressed day over the run,
    starting at the trough (1-A), peaking (1+A) mid-run."""
    if spec.diurnal_amplitude == 0.0:
        return 1.0
    phase = 2.0 * math.pi * t_ns / spec.duration_ns
    return 1.0 + spec.diurnal_amplitude * math.sin(phase - math.pi / 2.0)


def incast_schedule(master_seed: int, server_id: int,
                    spec: FleetSpec) -> List[List[Tuple[int, int]]]:
    """Per-epoch ``(t_ns, fanin)`` incast bursts aimed at one server.

    Drawn from the server's own named stream, so the schedule is
    independent of which blocks the LB currently routes there.
    """
    rng = fleet_rng(master_seed).child(f"server-{server_id}") \
        .child("incast")
    schedule: List[List[Tuple[int, int]]] = []
    for start, end in spec.epoch_bounds():
        bursts = []
        for _ in range(spec.incast_per_epoch):
            t = start + int(rng.random() * max(1, end - start - 1))
            bursts.append((t, spec.incast_fanin))
        schedule.append(sorted(bursts))
    return schedule

"""The invariant catalogue: what must hold after *every* fuzzed run.

Each checker is a pure function ``(case_dict, observation) -> [detail]``
over the observation collected by :mod:`repro.fuzz.runner`; an empty
list means the invariant held.  The catalogue:

* ``conservation`` — byte/packet conservation across layers: what the
  wire was offered toward the server equals what landed in the server's
  Rx queue ledgers, equals the per-PF device ledgers, equals the
  socket-level app ledgers; transmit mirrors it; NVMe conserves
  controller bytes against its queue-pair and per-PF ledgers; wire
  retransmits equal drops + corruptions.  Skipped (except the wire
  identity) when the run crashed mid-call.
* ``drained``   — every NIC queue and NVMe QP ends with zero
  outstanding entries (nothing leaked in flight).  Skipped on crash.
* ``no_reorder`` — §4.2's rule: every deferred re-steer (ARFS update,
  failover, recovery) applied with ``residual=0`` packets left in the
  queue it was draining.
* ``obs_consistency`` — the observability layers agree: driver
  failover/recovery counters match the tracer's ``*.applied`` record
  counts, the injector's event list matches its tracer mirror, and
  every trace flow is well-formed.
* ``replay``    — (harness-level, in :func:`repro.fuzz.runner.run_case`)
  running the same case twice gives byte-identical observations.
* ``blame_conservation`` — (harness-level) the case re-runs with a
  latency-blame collector attached: every sealed flow's stage charges
  must sum to its end-to-end latency exactly, and attaching blame must
  not perturb the observation fingerprint (observability stays
  read-only).
* ``agreement`` — (harness-level) exact and adaptive accuracy agree on
  every primary metric within tolerance.  Only checked for cases whose
  workload forms packet trains (pktgen, TCP_STREAM, colocated: the
  tier changes nothing else) and whose faults are performance-only
  (degrade/loss/throttle): topology-killing faults land at different
  event boundaries under train coalescing, so crash/failover timing is
  allowed to differ there.
* ``mutation_smoke`` — intentionally-broken invariant used to prove the
  harness catches and shrinks: it *fails* whenever a PF-level fault
  actually fired.  Never in the default set.

Fleet topology cases (workload ``fleet``) map the same names onto
rack-scale properties in :func:`repro.fuzz.runner.run_fleet_case`:
``conservation`` is the transaction ledger, ``drained`` is "deaths are
the only loss channel", ``obs_consistency`` is merged-registry /
shard-obs / failure-bookkeeping coherence and ``replay`` is the fleet
fingerprint.  A fleet server reads no accuracy tier, so ``agreement``
does not apply to fleet cases.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: Fault kinds that only change performance, never topology.
PERF_ONLY_FAULTS = {"pcie_degrade", "wire_loss", "qpi_throttle"}

#: Workloads that coalesce packet trains at the adaptive tier (their
#: build takes a ``TrainGovernor``).  The tier reaches nothing else a
#: fuzz case builds, so a TCP_RR, memcached or fio case runs the same
#: simulation at either tier.
TRAINED_WORKLOADS = {"pktgen", "tcp_stream", "colocated"}


def _crashed(obs: Dict) -> bool:
    return obs["outcome"] != "ok"


# ------------------------------------------------------------- catalogue

def check_conservation(case: Dict, obs: Dict) -> List[str]:
    out: List[str] = []
    wire = obs["wire"]
    if wire["retransmits"] != wire["drops"] + wire["corruptions"]:
        out.append(f"wire retransmits {wire['retransmits']} != drops "
                   f"{wire['drops']} + corruptions "
                   f"{wire['corruptions']}")
    if _crashed(obs):
        # A crash aborts mid-call between the wire charge and the queue
        # account; only the monotonic wire identity above is owed.
        return out
    server, client = obs["server"], obs["client"]

    def eq(label, a, b):
        if a != b:
            out.append(f"{label}: {a} != {b}")

    # Receive path, wire -> device -> queue -> app (server side; every
    # workload's inbound traffic crosses a_to_b exactly once).
    eq("wire a->b packets vs server rx-queue packets",
       wire["packets_offered_a_to_b"], server["rx_packets"])
    eq("wire a->b bytes vs server rx-queue bytes",
       wire["bytes_offered_a_to_b"], server["rx_bytes"])
    eq("server rx-queue bytes vs per-PF rx ledger",
       server["rx_bytes"], server["pf_rx_bytes"])
    eq("server rx-queue bytes vs socket rx ledger",
       server["rx_bytes"], server["sock_rx_bytes"])

    # Transmit path: every server tx goes device.tx -> wire b_to_a.
    eq("server tx-queue bytes vs per-PF tx ledger",
       server["tx_bytes"], server["pf_tx_bytes"])
    eq("wire b->a bytes vs server tx-queue bytes",
       wire["bytes_offered_b_to_a"], server["tx_bytes"])
    if case["workload"] != "pktgen":
        # pktgen transmits below the socket layer by design.
        eq("server tx-queue bytes vs socket tx ledger",
           server["tx_bytes"], server["sock_tx_bytes"])

    # Client mirror (only TCP_RR drives the client machine).
    eq("client rx-queue bytes vs per-PF rx ledger",
       client["rx_bytes"], client["pf_rx_bytes"])
    eq("client rx-queue bytes vs socket rx ledger",
       client["rx_bytes"], client["sock_rx_bytes"])
    eq("client tx-queue bytes vs per-PF tx ledger",
       client["tx_bytes"], client["pf_tx_bytes"])

    # NVMe: submission-to-completion conservation across layers.
    nvme = obs.get("nvme")
    if nvme is not None:
        eq("nvme controller bytes vs QP ledger",
           nvme["read_bytes"] + nvme["write_bytes"], nvme["qp_bytes"])
        eq("nvme read bytes vs per-PF read ledger",
           nvme["read_bytes"], nvme["pf_read_bytes"])
    return out


def check_drained(case: Dict, obs: Dict) -> List[str]:
    if _crashed(obs):
        return []
    out: List[str] = []
    for side in ("server", "client"):
        for direction in ("rx", "tx"):
            left = obs[side][f"{direction}_outstanding"]
            if left:
                out.append(f"{side} {direction} queues end with "
                           f"{left} outstanding")
    nvme = obs.get("nvme")
    if nvme is not None and nvme["qp_outstanding"]:
        out.append(f"nvme QPs end with {nvme['qp_outstanding']} "
                   f"outstanding")
    return out


def check_no_reorder(case: Dict, obs: Dict) -> List[str]:
    bad = [r for r in obs["trace"]["residuals"] if r != 0]
    if bad:
        return [f"{len(bad)} deferred re-steers applied with packets "
                f"still queued (residuals {bad[:5]})"]
    return []


def check_obs_consistency(case: Dict, obs: Dict) -> List[str]:
    out: List[str] = []
    counts = obs["trace"]["counts"]
    drivers = obs["drivers"]
    if drivers["failovers"] != counts.get("failover.applied", 0):
        out.append(f"driver failovers {drivers['failovers']} != traced "
                   f"failover.applied {counts.get('failover.applied', 0)}")
    if drivers["recoveries"] != counts.get("recovery.applied", 0):
        out.append(f"driver recoveries {drivers['recoveries']} != traced "
                   f"recovery.applied "
                   f"{counts.get('recovery.applied', 0)}")
    if len(obs["faults"]) != obs["trace"]["injector_records"]:
        out.append(f"injector recorded {len(obs['faults'])} events but "
                   f"mirrored {obs['trace']['injector_records']} to the "
                   f"tracer")
    out.extend(obs["trace"]["flow_errors"])
    return out


def check_mutation_smoke(case: Dict, obs: Dict) -> List[str]:
    """Deliberately broken: 'no PF-level fault may ever fire'."""
    fired = [e for e in obs["faults"]
             if "fault.pf_down" in e or "fault.pcie_link_down" in e]
    if fired:
        return [f"pf-level fault fired: {fired[0]}"]
    return []


#: Observation-level checkers, by invariant name.
INVARIANTS: Dict[str, Callable[[Dict, Dict], List[str]]] = {
    "conservation": check_conservation,
    "drained": check_drained,
    "no_reorder": check_no_reorder,
    "obs_consistency": check_obs_consistency,
    "mutation_smoke": check_mutation_smoke,
}

#: Harness-level invariants needing extra executions (see runner).
EXECUTION_INVARIANTS = ("replay", "agreement", "blame_conservation")

#: What ``ioctopus-repro fuzz`` checks by default.
DEFAULT_INVARIANTS = ("conservation", "drained", "no_reorder",
                      "obs_consistency", "replay", "agreement",
                      "blame_conservation")

ALL_INVARIANTS = tuple(INVARIANTS) + EXECUTION_INVARIANTS


def validate_names(names: List[str]) -> None:
    unknown = [n for n in names if n not in ALL_INVARIANTS]
    if unknown:
        raise ValueError(f"unknown invariants {unknown}; "
                         f"known: {sorted(ALL_INVARIANTS)}")


def check(case: Dict, obs: Dict, names: List[str]) -> List[Dict]:
    """Run every selected observation-level checker; returns violation
    dicts ``{"invariant", "detail"}`` (execution-level ones are handled
    by the runner)."""
    validate_names(names)
    violations: List[Dict] = []
    for name in names:
        checker = INVARIANTS.get(name)
        if checker is None:
            continue
        for detail in checker(case, obs):
            violations.append({"invariant": name, "detail": detail})
    return violations


def needs_adaptive_run(case: Dict, obs: Dict) -> bool:
    """Whether the agreement invariant applies to this case: the exact
    run finished, its workload forms trains (otherwise the adaptive
    replay repeats the exact run), and every fault was performance-only
    (topology faults legitimately shift event boundaries under train
    coalescing)."""
    if obs["outcome"] != "ok" or case["workload"] not in TRAINED_WORKLOADS:
        return False
    return all(f["kind"] in PERF_ONLY_FAULTS for f in case["faults"])

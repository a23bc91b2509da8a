"""Execute one fuzz case and collect the observation the invariants need.

:func:`run_case` is a module-level function with JSON-able kwargs, so the
harness can fan cases across workers through the same
:func:`repro.experiments.sweep.sweep_map` executor the figures use.

One *execution* builds a fresh seeded testbed for the case, attaches the
fault injector(s) and the tracer, runs to the case horizon (catching
simulator crashes — a dead standard-firmware netdev is a legitimate
outcome, not a harness error), and distils everything the invariant
catalogue inspects into a plain-JSON *observation* dict.  A SHA-256
fingerprint over the canonical observation JSON is the unit of replay
comparison: same case, same fingerprint, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, Optional

from repro.core.configurations import Testbed, attach_octossd
from repro.experiments.runners import is_adaptive, system_for, warmup_of
from repro.faults.injector import FaultInjector
from repro.fuzz.case import FuzzCase
from repro.nic.packet import Flow
from repro.nvme.driver import NvmeDriver
from repro.sim.errors import SimulationError
from repro.sim.rng import SimRandom
from repro.units import KB
from repro.workloads.fio import FioReader
from repro.workloads.memcached import MemcachedServer
from repro.workloads.netperf import RequestResponse, TcpStream
from repro.workloads.pktgen import Pktgen
from repro.workloads.train import TrainGovernor

#: Slack past every fault's recovery so post-recovery state settles.
RECOVERY_SLACK_NS = 200_000

_RESIDUAL = re.compile(r"residual=(\d+)")


# ----------------------------------------------------------------- build

def _build(case: FuzzCase, accuracy: str, trace: bool,
           blame_collector=None):
    adaptive = is_adaptive(accuracy)
    testbed = Testbed(system_for(case.config, case.components),
                      seed=case.seed)
    if trace:
        for machine in (testbed.server.machine, testbed.client.machine):
            machine.tracer.enabled = True
            machine.tracer.flows = True
    if blame_collector is not None:
        for machine in (testbed.server.machine, testbed.client.machine):
            machine.tracer.enabled = True
            machine.tracer.blame = blame_collector
    server = testbed.server
    warmup = warmup_of(case.duration_ns)
    workloads: Dict[str, object] = {}
    nvme_ctrl = None
    nvme_driver = None
    params = case.params

    if case.has_nvme:
        octo = case.config == "ioctopus"
        nvme_ctrl = attach_octossd(server.machine, octo, name="fuzz-ssd")
        nvme_driver = NvmeDriver(server.machine, nvme_ctrl,
                                 octo_mode=octo)

    if case.workload == "pktgen":
        workloads["pktgen"] = Pktgen(
            server, testbed.server_core(0), params["packet_bytes"],
            case.duration_ns, warmup,
            governor=TrainGovernor() if adaptive else None)
    elif case.workload == "tcp_stream":
        workloads["stream"] = TcpStream(
            server, testbed.server_core(0), Flow.make(0),
            params["message_bytes"], params["direction"],
            case.duration_ns, warmup,
            governor=TrainGovernor() if adaptive else None)
    elif case.workload == "tcp_rr":
        workloads["rr"] = RequestResponse(testbed, params["message_bytes"],
                                          case.duration_ns, warmup)
    elif case.workload == "memcached":
        cores = [testbed.server_core(i) for i in range(params["workers"])]
        workloads["memcached"] = MemcachedServer(
            server, cores, params["set_fraction"], case.duration_ns,
            warmup, value_bytes=params["value_bytes"])
    elif case.workload == "fio":
        for i in range(params["threads"]):
            workloads[f"fio{i}"] = FioReader(
                server, testbed.server_core(i), nvme_driver,
                case.duration_ns, warmup,
                block_bytes=params["block_bytes"],
                iodepth=params["iodepth"])
    else:  # colocated: TCP_STREAM rx + one fio thread on the same box.
        workloads["stream"] = TcpStream(
            server, testbed.server_core(0), Flow.make(0),
            params["message_bytes"], "rx", case.duration_ns, warmup,
            governor=TrainGovernor() if adaptive else None)
        workloads["fio0"] = FioReader(
            server, testbed.server_core(1), nvme_driver,
            case.duration_ns, warmup,
            block_bytes=params["block_bytes"],
            iodepth=params["iodepth"])

    injectors: List[FaultInjector] = []
    nic_plan = case.fault_plan("nic")
    if len(nic_plan):
        injectors.append(FaultInjector(
            testbed.env, nic_plan, device=server.nic, wire=testbed.wire,
            machine=server.machine,
            rng=SimRandom(case.seed, name="fuzz-faults-nic")))
    ssd_plan = case.fault_plan("ssd")
    if len(ssd_plan):
        injectors.append(FaultInjector(
            testbed.env, ssd_plan, device=nvme_ctrl,
            machine=server.machine,
            rng=SimRandom(case.seed, name="fuzz-faults-ssd")))
    for injector in injectors:
        injector.start()

    return testbed, workloads, injectors, nvme_ctrl, nvme_driver


def _horizon_ns(case: FuzzCase) -> int:
    end = case.duration_ns + case.duration_ns // 5
    for fault in case.faults:
        end = max(end, fault["at_ns"] + fault["duration_ns"]
                  + RECOVERY_SLACK_NS)
    return end


# --------------------------------------------------------------- observe

def _nic_side(host) -> Dict:
    queues = host.driver.queues
    device = host.nic
    stack = host.stack
    return {
        "rx_packets": sum(q.packets_total for q in queues.rx),
        "rx_bytes": sum(q.bytes_total for q in queues.rx),
        "tx_packets": sum(q.packets_total for q in queues.tx),
        "tx_bytes": sum(q.bytes_total for q in queues.tx),
        "rx_outstanding": sum(q.outstanding for q in queues.rx),
        "tx_outstanding": sum(q.outstanding for q in queues.tx),
        "pf_rx_bytes": sum(device.pf_rx_bytes(pf.pf_id)
                           for pf in device.pfs),
        "pf_tx_bytes": sum(device.pf_tx_bytes(pf.pf_id)
                           for pf in device.pfs),
        "sock_rx_bytes": sum(s.rx_payload_bytes for s in stack.sockets),
        "sock_tx_bytes": sum(s.tx_payload_bytes for s in stack.sockets),
        "sockets": len(stack.sockets),
    }


def _flow_errors(tracer) -> List[str]:
    """Well-formedness of flow staircases: one opening step, at most one
    terminal step, non-decreasing time cursor."""
    errors: List[str] = []
    flows: Dict[int, List] = {}
    for record in tracer.records:
        if record.flow_id is not None:
            flows.setdefault(record.flow_id, []).append(record)
    for flow_id, records in flows.items():
        phases = [r.flow_phase for r in records]
        if phases[0] != "s":
            errors.append(f"flow {flow_id} does not open with 's'")
        if phases.count("s") != 1:
            errors.append(f"flow {flow_id} has {phases.count('s')} "
                          f"opening steps")
        if phases.count("f") > 1:
            errors.append(f"flow {flow_id} finishes twice")
        times = [r.time for r in records]
        if times != sorted(times):
            errors.append(f"flow {flow_id} time cursor went backwards")
    return errors


def _metrics(case: FuzzCase, workloads: Dict):
    """(metrics, records): each metric's value plus how many meter
    records produced it — the quantisation unit the agreement invariant
    gates on (a handful of coarse bursts cannot be compared across
    accuracy modes without windowing artifacts)."""
    metrics: Dict[str, Optional[float]] = {}
    records: Dict[str, int] = {}

    def read(name, fn, nrecords):
        try:
            metrics[name] = round(fn(), 9)
        except (ValueError, ZeroDivisionError):
            metrics[name] = None
        records[name] = nrecords

    params = case.params
    if "pktgen" in workloads:
        w = workloads["pktgen"]
        read("mpps", w.mpps, w.meter.messages_total // 64)
    if "stream" in workloads:
        w = workloads["stream"]
        batch = max(1, (64 * KB) // params.get("message_bytes", 4 * KB))
        read("stream_gbps", w.throughput_gbps,
             w.meter.messages_total // batch)
    if "rr" in workloads:
        w = workloads["rr"]
        read("rtt_ns", w.average_rtt_ns, len(w.latencies))
    if "memcached" in workloads:
        w = workloads["memcached"]
        read("ktps", w.transactions_ktps, w.meter.messages_total)
    fio = [w for name, w in workloads.items() if name.startswith("fio")]
    if fio:
        iodepth = max(1, params.get("iodepth", 8))
        read("fio_gbps", lambda: sum(f.throughput_gbps() for f in fio),
             sum(f.meter.messages_total for f in fio) // iodepth)
        metrics["fio_errors"] = sum(len(f.errors) for f in fio)
        records["fio_errors"] = 0
    return metrics, records


def _collect(case: FuzzCase, accuracy: str, testbed, workloads,
             injectors, nvme_ctrl, nvme_driver, outcome: str,
             error: Optional[str], trace: bool) -> Dict:
    server, client = testbed.server, testbed.client
    wire = testbed.wire
    counts: Dict[str, int] = {}
    residuals: List[int] = []
    flow_errors: List[str] = []
    injector_records = 0
    if trace:
        for machine in (server.machine, client.machine):
            tracer = machine.tracer
            for event, n in tracer.counts().items():
                counts[event] = counts.get(event, 0) + n
            for record in tracer.records:
                if record.event in ("failover.applied",
                                    "recovery.applied", "steer.applied"):
                    match = _RESIDUAL.search(str(record.payload))
                    if match:
                        residuals.append(int(match.group(1)))
                if record.source == "fault-injector":
                    injector_records += 1
            flow_errors.extend(_flow_errors(tracer))

    fault_events: List[str] = []
    for injector in injectors:
        fault_events.extend(injector.rendered_events())

    obs: Dict = {
        "outcome": outcome,
        "error": error,
        "end_ns": testbed.env.now,
        "accuracy": accuracy,
        "wire": {
            "packets_offered_a_to_b": wire.packets_offered["a_to_b"],
            "packets_offered_b_to_a": wire.packets_offered["b_to_a"],
            "bytes_offered_a_to_b": wire.payload_bytes_offered["a_to_b"],
            "bytes_offered_b_to_a": wire.payload_bytes_offered["b_to_a"],
            "drops": wire.drops_total,
            "corruptions": wire.corruptions_total,
            "retransmits": wire.retransmitted_packets,
        },
        "server": _nic_side(server),
        "client": _nic_side(client),
        "drivers": {
            "failovers": (getattr(server.driver, "failovers", 0)
                          + (nvme_driver.failovers if nvme_driver else 0)),
            "recoveries": (getattr(server.driver, "recoveries", 0)
                           + (nvme_driver.recoveries if nvme_driver
                              else 0)),
            "retries": (server.driver.retries
                        + (nvme_driver.retries if nvme_driver else 0)),
            "steering_updates": (server.driver.steering_updates
                                 + client.driver.steering_updates),
        },
        "faults": sorted(fault_events),
        "trace": {
            "counts": counts,
            "residuals": residuals,
            "flow_errors": flow_errors,
            "injector_records": injector_records,
        },
    }
    obs["metrics"], obs["metrics_records"] = _metrics(case, workloads)
    if nvme_ctrl is not None:
        qps = list(nvme_driver._qps.values())
        obs["nvme"] = {
            "read_bytes": nvme_ctrl.read_bytes,
            "write_bytes": nvme_ctrl.write_bytes,
            "pf_read_bytes": sum(nvme_ctrl.pf_read_bytes(pf.pf_id)
                                 for pf in nvme_ctrl.pfs),
            "qp_bytes": sum(qp.bytes_total for qp in qps),
            "qp_outstanding": sum(qp.outstanding for qp in qps),
        }
    else:
        obs["nvme"] = None
    return obs


def fingerprint(obs: Dict) -> str:
    """SHA-256 over the canonical observation JSON (replay unit)."""
    payload = json.dumps(obs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------- execute

def execute(case: FuzzCase, accuracy: str = "exact",
            trace: bool = True, blame_collector=None) -> Dict:
    """One simulation of ``case``; returns the observation dict."""
    testbed, workloads, injectors, nvme_ctrl, nvme_driver = _build(
        case, accuracy, trace, blame_collector)
    outcome, error = "ok", None
    try:
        testbed.run(_horizon_ns(case))
    except SimulationError as exc:
        outcome = "crashed"
        error = (f"{type(exc).__name__} at {testbed.env.now}ns: "
                 f"{exc}")
    return _collect(case, accuracy, testbed, workloads, injectors,
                    nvme_ctrl, nvme_driver, outcome, error, trace)


def run_case(case: Dict, invariants: Optional[List[str]] = None) -> Dict:
    """Run one case dict and check the selected invariants.

    Module-level and JSON-in/JSON-out so ``sweep_map`` can ship it to a
    worker process.  Returns ``{case, outcome, fingerprint, metrics,
    violations}`` where each violation is ``{"invariant", "detail"}``.
    Fleet topology cases dispatch to :func:`run_fleet_case`.
    """
    if case.get("workload") == "fleet":
        return run_fleet_case(case, invariants=invariants)
    # Imported here (not at module top) to keep runner importable from
    # invariants without a cycle.
    from repro.fuzz.invariants import (DEFAULT_INVARIANTS, check,
                                       needs_adaptive_run)
    names = list(invariants) if invariants else list(DEFAULT_INVARIANTS)
    fuzz_case = FuzzCase.from_dict(case)
    obs = execute(fuzz_case, "exact")
    violations = check(case, obs, names)

    if "replay" in names:
        replay_obs = execute(fuzz_case, "exact")
        want, got = fingerprint(obs), fingerprint(replay_obs)
        if want != got:
            violations.append({
                "invariant": "replay",
                "detail": f"same seed diverged: {want[:16]} != "
                          f"{got[:16]}"})

    if "blame_conservation" in names:
        # Re-run with a blame collector attached: stage charges must sum
        # to each sealed flow's end-to-end latency exactly, and the
        # attachment must not perturb the observation (obs stays
        # read-only with respect to the model).
        from repro.obs.blame import BlameCollector
        collector = BlameCollector()
        blame_obs = execute(fuzz_case, "exact",
                            blame_collector=collector)
        if not collector.conservation_ok:
            first = (collector.conservation_errors[0]
                     if collector.conservation_errors else "")
            violations.append({
                "invariant": "blame_conservation",
                "detail": f"{collector.violations} flows broke stage-sum"
                          f" == end-to-end; first: {first}"})
        want, got = fingerprint(obs), fingerprint(blame_obs)
        if want != got:
            violations.append({
                "invariant": "blame_conservation",
                "detail": f"blame collection perturbed the run: "
                          f"{want[:16]} != {got[:16]}"})

    if "agreement" in names and needs_adaptive_run(case, obs):
        # Every perf-only case that forms trains is replayed under the
        # adaptive tier, which must tell the exact mode's performance
        # story.
        adaptive_obs = execute(fuzz_case, "adaptive", trace=False)
        violations.extend(_check_agreement(obs, adaptive_obs, AGREEMENT_REL))

    return {
        "case": case,
        "outcome": obs["outcome"],
        "error": obs["error"],
        "fingerprint": fingerprint(obs),
        "metrics": obs["metrics"],
        "violations": violations,
    }


# ----------------------------------------------------------- fleet cases

def _fleet_violations(spec, fleet, names: List[str]) -> List[Dict]:
    """The invariant catalogue, mapped onto a merged fleet result.

    ``conservation`` is the transaction ledger (planned = served +
    lost, digests account for every served transaction), ``drained``
    is "deaths are the only loss channel", and ``obs_consistency``
    checks that the merged registry/rollups, the per-shard obs payloads
    and the failure bookkeeping all tell the same story.
    """
    out: List[Dict] = []

    def bad(invariant, detail):
        out.append({"invariant": invariant, "detail": detail})

    if "conservation" in names:
        if fleet.planned != fleet.served + fleet.lost:
            bad("conservation",
                f"planned {fleet.planned} != served {fleet.served} + "
                f"lost {fleet.lost}")
        if fleet.digest.count != fleet.served:
            bad("conservation",
                f"digest count {fleet.digest.count} != served "
                f"{fleet.served}")
        epoch_total = sum(d.count for d in fleet.epoch_digests.values())
        if epoch_total != fleet.served:
            bad("conservation",
                f"epoch digest counts sum to {epoch_total}, served "
                f"{fleet.served}")
        for shard in fleet.servers:
            if shard["planned"] != shard["served"] + shard["lost"]:
                bad("conservation",
                    f"server {shard['server']}: planned "
                    f"{shard['planned']} != served {shard['served']} + "
                    f"lost {shard['lost']}")

    if "drained" in names:
        # Loss has exactly one legitimate channel: arrivals planned for
        # a server the LB had not yet noticed was dead.
        if not fleet.dead_servers() and fleet.lost:
            bad("drained", f"{fleet.lost} transactions lost with every "
                           f"server alive")
        for shard in fleet.servers:
            if shard["died_at"] is None and shard["lost"]:
                bad("drained", f"server {shard['server']} alive but "
                               f"lost {shard['lost']} transactions")

    if "obs_consistency" in names:
        expected_dead = sorted(
            server for server in range(spec.servers)
            if spec.death_ns(server) is not None)
        if fleet.dead_servers() != expected_dead:
            bad("obs_consistency",
                f"dead servers {fleet.dead_servers()} != spec "
                f"prediction {expected_dead}")
        values = fleet.registry().collect()
        if values.get("fleet.txn.served") != fleet.served:
            bad("obs_consistency",
                f"registry rollup fleet.txn.served "
                f"{values.get('fleet.txn.served')} != merged "
                f"{fleet.served}")
        for shard in fleet.servers:
            if not shard["obs"]:
                bad("obs_consistency",
                    f"server {shard['server']} shipped no obs values")
            flap = spec.flap_for(shard["server"])
            # A survivable flap must really have driven the team
            # driver: one failover applied, one recovery applied.
            if flap is not None and shard["failover_events"] != 2:
                bad("obs_consistency",
                    f"server {shard['server']}: pf flap logged "
                    f"{shard['failover_events']} fault events, "
                    f"expected 2 (failover + recovery)")
    return out


def run_fleet_case(case: Dict,
                   invariants: Optional[List[str]] = None) -> Dict:
    """Run one fleet topology case and check the fleet invariants.

    The fleet runs inline (``jobs=1``) because :func:`run_case` itself
    already executes inside a sweep worker during campaigns — nesting
    process pools buys nothing.  The replay unit is the fleet
    fingerprint (canonical sha256 over every shard).  A fleet server
    reads no accuracy tier, so ``agreement`` has nothing to compare
    here.
    """
    from repro.cluster import FleetSpec, run_fleet
    from repro.fuzz.invariants import DEFAULT_INVARIANTS, validate_names
    names = list(invariants) if invariants else list(DEFAULT_INVARIANTS)
    validate_names(names)
    spec = FleetSpec.from_dict(case["params"])
    outcome, error = "ok", None
    violations: List[Dict] = []
    metrics: Dict = {}
    fleet_fingerprint = ""
    try:
        fleet = run_fleet(spec, master_seed=case["seed"], jobs=1)
    except SimulationError as exc:
        outcome = "crashed"
        error = f"{type(exc).__name__}: {exc}"
    else:
        fleet_fingerprint = fleet.fingerprint()
        violations = _fleet_violations(spec, fleet, names)
        metrics = {"served": fleet.served, "lost": fleet.lost,
                   "ktps": round(fleet.ktps, 3),
                   "p99_ns": (fleet.percentile(99)
                              if fleet.digest.count else None)}

        if "replay" in names:
            again = run_fleet(spec, master_seed=case["seed"], jobs=1)
            if again.fingerprint() != fleet_fingerprint:
                violations.append({
                    "invariant": "replay",
                    "detail": f"same fleet diverged: "
                              f"{fleet_fingerprint[:16]} != "
                              f"{again.fingerprint()[:16]}"})

    return {
        "case": case,
        "outcome": outcome,
        "error": error,
        "fingerprint": fleet_fingerprint,
        "metrics": metrics,
        "violations": violations,
    }


#: Meter metrics need at least this many records before exact and
#: adaptive rates are comparable: with only a handful of coarse bursts
#: in the window, the two modes' meter alignment (fixed window vs
#: train-aligned) quantises differently by design.
MIN_AGREEMENT_RECORDS = 40
#: ... and must then agree to within this relative error.
AGREEMENT_REL = 0.1

#: Full-run ledger totals are mode-independent up to end-of-run
#: truncation: the horizon can cut adaptive mode mid-train, leaving its
#: last coalesced train(s) undelivered.  Allow a couple of trains of
#: absolute slack, and beyond that hold ledgers much tighter than the
#: meter rates.
LEDGER_AGREEMENT_REL = 0.02
LEDGER_AGREEMENT_SLACK_BYTES = 2 * 64 * KB


def _check_agreement(exact: Dict, adaptive: Dict, rel: float) -> List[Dict]:
    """Exact and adaptive accuracy must tell the same performance story.

    Two layers: full-run byte ledgers (tight — trains conserve bytes, so
    totals must match almost exactly) and workload meter rates (looser,
    and only when the meter saw enough records to be windowing-robust).
    """
    violations: List[Dict] = []
    if adaptive["outcome"] != exact["outcome"]:
        violations.append({
            "invariant": "agreement",
            "detail": f"outcome differs: exact={exact['outcome']} "
                      f"adaptive={adaptive['outcome']}"})
        return violations

    def close(want, got, tolerance):
        if abs(want) < 1e-6:
            return abs(got) < 1e-6
        return abs(got - want) / abs(want) <= tolerance

    ledgers = [("server rx bytes", exact["server"]["rx_bytes"],
                adaptive["server"]["rx_bytes"]),
               ("server tx bytes", exact["server"]["tx_bytes"],
                adaptive["server"]["tx_bytes"])]
    if exact.get("nvme") and adaptive.get("nvme"):
        ledgers.append(("nvme QP bytes", exact["nvme"]["qp_bytes"],
                        adaptive["nvme"]["qp_bytes"]))
    for label, want, got in ledgers:
        slack = max(LEDGER_AGREEMENT_SLACK_BYTES,
                    LEDGER_AGREEMENT_REL * abs(want))
        if abs(got - want) > slack:
            violations.append({
                "invariant": "agreement",
                "detail": f"{label}: exact={want} adaptive={got} "
                          f"(tolerance {LEDGER_AGREEMENT_REL:.0%} or "
                          f"{LEDGER_AGREEMENT_SLACK_BYTES} B)"})

    for name, want in exact["metrics"].items():
        got = adaptive["metrics"].get(name)
        if want is None or got is None or name == "fio_errors":
            continue
        if exact["metrics_records"].get(name, 0) < MIN_AGREEMENT_RECORDS:
            continue
        if not close(want, got, rel):
            violations.append({
                "invariant": "agreement",
                "detail": f"{name}: exact={want} adaptive={got} "
                          f"(tolerance {rel:.0%})"})
    return violations

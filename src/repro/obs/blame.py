"""Latency-blame attribution: which stage owns each nanosecond?

The flow tracer draws a request's journey; this module *accounts* for
it.  Every instrumented hop charges its latency to a named **stage**
(wire transit, PF DMA, doorbell MMIO, interrupt delivery, stack
processing, completion-entry reads, application service, ...), and a
:class:`BlameCollector` aggregates the charges into per-stage
:class:`~repro.metrics.collect.LatencyDigest` budgets plus a mergeable
tail map that answers "which stage dominates the p99 requests".

Stage names carry a locality/classification suffix after the family
name — ``dma.local`` vs ``dma.qpi``, ``cq.hit`` vs ``cq.miss`` — so a
differential run (:mod:`repro.obs.diff`) can attribute a latency delta
to QPI transit and DDIO-miss/remote-DRAM stages exactly, without
counterfactual re-simulation.

Conservation is the load-bearing invariant: for every sealed flow the
integer sum of its stage charges must equal the end-to-end latency the
model returned, to the nanosecond, in every accuracy tier.  Where the
model overlaps work (the NIC pipeline runs wire transit and DMA
concurrently; TCP Tx overlaps the data DMA with the completion
write-back) the instrumentation charges overlap *residuals* — e.g. on
Rx the wire stage owns ``wire_delay`` and the DMA stage owns
``pipeline + max(0, dma - wire)`` — so the decomposition is exact by
construction and the check catches incomplete instrumentation rather
than modelling slack.

Adaptive packet trains seal once per train with
``represented=k``; digests then record the per-request apportionment
(``stage_ns // k`` with weight ``k``) while the raw integer sums stay
unapportioned, keeping conservation exact in every tier.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.metrics.collect import LatencyDigest

#: Stage-name suffixes that mark nonuniform-DMA costs: ``.qpi`` stages
#: cross the socket interconnect, ``.miss`` stages pay DDIO misses
#: served from DRAM.  ``obs diff`` sums these to answer "how much of
#: the delta is the paper's NUDMA story".
NUDMA_SUFFIXES = (".qpi", ".miss")

#: Conservation violations kept verbatim before truncating (the count
#: keeps incrementing; the messages stop growing).
MAX_CONSERVATION_ERRORS = 16

#: The tail that "p99 blame" explains: the requests at or above p99.
TAIL_PERCENTILE = 99.0


def stage_family(stage: str) -> str:
    """``dma.qpi`` -> ``dma``: the stage name without its
    locality/classification suffix."""
    return stage.split(".", 1)[0]


def is_nudma_stage(stage: str) -> bool:
    return stage.endswith(NUDMA_SUFFIXES)


class BlameDomain:
    """Per-stage accounting for one flow domain (``flow`` for packet/IO
    journeys, ``txn`` for fleet transactions with queue wait)."""

    __slots__ = ("e2e", "stages", "stage_ns", "tail", "flows", "units",
                 "total_ns")

    def __init__(self):
        #: Per-request end-to-end latency digest (weighted by
        #: ``represented`` for coalesced trains).
        self.e2e = LatencyDigest()
        #: Per-stage per-request digests.
        self.stages: Dict[str, LatencyDigest] = {}
        #: Exact integer nanosecond sums per stage (unapportioned).
        self.stage_ns: Dict[str, int] = {}
        #: Sparse ``e2e bucket -> {stage -> ns}`` map.  Mergeable by
        #: addition; walking buckets from the top down reconstructs
        #: "which stages own the slowest 1% of requests" even after a
        #: fleet-wide merge.
        self.tail: Dict[int, Dict[str, int]] = {}
        #: Sealed flows (trains count once).
        self.flows = 0
        #: Base units represented (trains count their ``k``).
        self.units = 0
        #: Exact end-to-end nanosecond sum.
        self.total_ns = 0

    def add(self, stages: Dict[str, int], total_ns: int,
            represented: int = 1) -> int:
        """Fold one sealed flow in; returns the integer stage sum so the
        caller can run the conservation check."""
        total = int(total_ns)
        k = max(1, int(represented))
        per_unit = total // k
        self.flows += 1
        self.units += k
        self.total_ns += total
        self.e2e.record(per_unit, n=k)
        bucket = self.e2e._bucket_of(per_unit)
        tail_bucket = self.tail.get(bucket)
        if tail_bucket is None:
            tail_bucket = self.tail[bucket] = {}
        stage_sum = 0
        for name, ns in stages.items():
            ns = int(ns)
            stage_sum += ns
            self.stage_ns[name] = self.stage_ns.get(name, 0) + ns
            digest = self.stages.get(name)
            if digest is None:
                digest = self.stages[name] = LatencyDigest()
            digest.record(ns // k, n=k)
            tail_bucket[name] = tail_bucket.get(name, 0) + ns
        return stage_sum

    # ---------------------------------------------------------- queries

    def tail_blame(self, p: float = TAIL_PERCENTILE) -> Dict:
        """Stage attribution of the slowest ``(100 - p)%`` requests.

        Walks the end-to-end digest's buckets from the top down until
        the tail population is covered, then sums each stage's
        nanoseconds over exactly those buckets — mergeable across
        shards because both the digest and the tail map merge by
        addition."""
        if not self.units:
            return {"units": 0, "threshold_ns": None, "stage_ns": {},
                    "e2e_ns": 0}
        rank = max(1, math.ceil(p / 100 * self.units))
        target = self.units - rank + 1
        covered = 0
        stage_ns: Dict[str, int] = {}
        e2e_ns = 0
        threshold = None
        for bucket in sorted(self.e2e.buckets, reverse=True):
            if covered >= target:
                break
            covered += self.e2e.buckets[bucket]
            threshold = bucket
            for name, ns in self.tail.get(bucket, {}).items():
                stage_ns[name] = stage_ns.get(name, 0) + ns
                e2e_ns += ns
        return {
            "units": covered,
            "threshold_ns": (None if threshold is None
                             else self.e2e._bucket_value(threshold)),
            "stage_ns": stage_ns,
            "e2e_ns": e2e_ns,
        }

    # ---------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "e2e": self.e2e.to_dict(),
            "stages": {name: digest.to_dict()
                       for name, digest in sorted(self.stages.items())},
            "stage_ns": dict(sorted(self.stage_ns.items())),
            "tail": {str(bucket): dict(sorted(stages.items()))
                     for bucket, stages in sorted(self.tail.items())},
            "flows": self.flows,
            "units": self.units,
            "total_ns": self.total_ns,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BlameDomain":
        domain = cls()
        domain.e2e = LatencyDigest.from_dict(data["e2e"])
        domain.stages = {name: LatencyDigest.from_dict(d)
                         for name, d in data["stages"].items()}
        domain.stage_ns = {name: int(ns)
                           for name, ns in data["stage_ns"].items()}
        domain.tail = {int(bucket): {name: int(ns)
                                     for name, ns in stages.items()}
                       for bucket, stages in data["tail"].items()}
        domain.flows = int(data["flows"])
        domain.units = int(data["units"])
        domain.total_ns = int(data["total_ns"])
        return domain

    def merge(self, other: "BlameDomain") -> "BlameDomain":
        self.e2e.merge(other.e2e)
        for name, digest in other.stages.items():
            mine = self.stages.get(name)
            if mine is None:
                mine = self.stages[name] = LatencyDigest()
            mine.merge(digest)
        for name, ns in other.stage_ns.items():
            self.stage_ns[name] = self.stage_ns.get(name, 0) + ns
        for bucket, stages in other.tail.items():
            mine_bucket = self.tail.get(bucket)
            if mine_bucket is None:
                mine_bucket = self.tail[bucket] = {}
            for name, ns in stages.items():
                mine_bucket[name] = mine_bucket.get(name, 0) + ns
        self.flows += other.flows
        self.units += other.units
        self.total_ns += other.total_ns
        return self


class BlameCollector:
    """Attach to a :class:`~repro.sim.tracing.Tracer` (``tracer.blame``)
    to receive every sealed flow's stage decomposition."""

    __slots__ = ("domains", "conservation_errors", "violations")

    def __init__(self):
        self.domains: Dict[str, BlameDomain] = {}
        #: First few conservation failures, verbatim.
        self.conservation_errors: List[str] = []
        #: Total conservation failures (keeps counting past the cap).
        self.violations = 0

    def domain(self, name: str = "flow") -> BlameDomain:
        domain = self.domains.get(name)
        if domain is None:
            domain = self.domains[name] = BlameDomain()
        return domain

    def add(self, stages: Dict[str, int], total_ns: int,
            represented: int = 1, domain: str = "flow") -> None:
        stage_sum = self.domain(domain).add(stages, total_ns, represented)
        if stage_sum != int(total_ns):
            self.violations += 1
            if len(self.conservation_errors) < MAX_CONSERVATION_ERRORS:
                self.conservation_errors.append(
                    f"{domain}: stage sum {stage_sum} != end-to-end "
                    f"{int(total_ns)} (stages={dict(sorted(stages.items()))})")

    @property
    def conservation_ok(self) -> bool:
        return self.violations == 0

    # ---------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "domains": {name: domain.to_dict()
                        for name, domain in sorted(self.domains.items())},
            "violations": self.violations,
            "conservation_errors": list(self.conservation_errors),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BlameCollector":
        collector = cls()
        collector.domains = {name: BlameDomain.from_dict(d)
                             for name, d in data["domains"].items()}
        collector.violations = int(data.get("violations", 0))
        collector.conservation_errors = list(
            data.get("conservation_errors", ()))
        return collector

    def merge(self, other: "BlameCollector") -> "BlameCollector":
        """Namespace-free fleet merge: domains fold together by name
        (digest merge + integer addition), which is how per-server
        shards combine into one fleet-wide blame view."""
        for name, domain in other.domains.items():
            self.domain(name).merge(domain)
        self.violations += other.violations
        for message in other.conservation_errors:
            if len(self.conservation_errors) < MAX_CONSERVATION_ERRORS:
                self.conservation_errors.append(message)
        return self


# ------------------------------------------------------------- reporting

def build_report(collector: BlameCollector, domain: str = "flow",
                 point: Optional[Dict] = None,
                 result: Optional[Dict] = None,
                 counters: Optional[Dict] = None) -> Dict:
    """The ``obs blame`` report: per-stage p50/p99 budgets, overall
    shares, p99 tail blame, and the conservation verdict — plain JSON,
    in the style of the ablation report."""
    dom = collector.domain(domain)
    tail = dom.tail_blame()
    units = dom.units
    stages = []
    for name in sorted(dom.stages,
                       key=lambda n: -dom.stage_ns.get(n, 0)):
        digest = dom.stages[name]
        total = dom.stage_ns.get(name, 0)
        tail_ns = tail["stage_ns"].get(name, 0)
        stages.append({
            "stage": name,
            "family": stage_family(name),
            "nudma": is_nudma_stage(name),
            "p50_ns": digest.percentile(50) if digest.count else 0,
            "p99_ns": digest.percentile(99) if digest.count else 0,
            "mean_ns": total / units if units else 0.0,
            "total_ns": total,
            "share": total / dom.total_ns if dom.total_ns else 0.0,
            "tail_ns": tail_ns,
            "tail_mean_ns": (tail_ns / tail["units"]
                             if tail["units"] else 0.0),
            "tail_share": (tail_ns / tail["e2e_ns"]
                           if tail["e2e_ns"] else 0.0),
        })
    p99_blame = max(stages, key=lambda s: s["tail_ns"], default=None)
    report = {
        "domain": domain,
        "flows": dom.flows,
        "units": units,
        "e2e": {
            "p50_ns": dom.e2e.percentile(50) if units else 0,
            "p99_ns": dom.e2e.percentile(99) if units else 0,
            "mean_ns": dom.total_ns / units if units else 0.0,
            "min_ns": dom.e2e.min,
            "max_ns": dom.e2e.max,
            "total_ns": dom.total_ns,
        },
        "stages": stages,
        "p99_blame": (None if p99_blame is None else {
            "stage": p99_blame["stage"],
            "tail_share": p99_blame["tail_share"],
            "tail_mean_ns": p99_blame["tail_mean_ns"],
        }),
        "tail": {"units": tail["units"],
                 "threshold_ns": tail["threshold_ns"],
                 "e2e_ns": tail["e2e_ns"]},
        "conservation": {
            "checked_flows": dom.flows,
            "violations": collector.violations,
            "ok": collector.conservation_ok,
            "errors": list(collector.conservation_errors),
        },
    }
    if point is not None:
        report["point"] = point
    if result is not None:
        report["result"] = result
    if counters is not None:
        report["counters"] = counters
    return report


def render_text(report: Dict) -> str:
    """Per-stage budget table, worst offender first."""
    lines = []
    point = report.get("point")
    if point:
        lines.append("blame " + " ".join(
            f"{k}={v}" for k, v in sorted(point.items())))
    e2e = report["e2e"]
    lines.append(
        f"  domain {report['domain']}: {report['flows']} flows "
        f"({report['units']} units), e2e p50 {e2e['p50_ns']} ns, "
        f"p99 {e2e['p99_ns']} ns, mean {e2e['mean_ns']:.1f} ns")
    conservation = report["conservation"]
    verdict = ("stage sums == end-to-end (exact)"
               if conservation["ok"] else
               f"{conservation['violations']} conservation VIOLATIONS")
    lines.append(f"  conservation: {verdict}")
    lines.append("")
    lines.append(f"  {'stage':16s} {'p50':>9} {'p99':>9} {'mean':>10} "
                 f"{'share':>7} {'tail-share':>10}")
    for row in report["stages"]:
        mark = " *" if row["nudma"] else ""
        lines.append(
            f"  {row['stage']:16s} {row['p50_ns']:>9} {row['p99_ns']:>9} "
            f"{row['mean_ns']:>10.1f} {row['share']:>7.1%} "
            f"{row['tail_share']:>10.1%}{mark}")
    blame = report.get("p99_blame")
    if blame:
        lines.append("")
        lines.append(
            f"  p99 blame: {blame['stage']} "
            f"({blame['tail_share']:.1%} of tail-request time, "
            f"{blame['tail_mean_ns']:.0f} ns per tail request)")
    lines.append("")
    lines.append("  * = NUDMA stage (QPI transit or DDIO-miss/remote DRAM)")
    return "\n".join(lines)


# ---------------------------------------------------------- point runner

def run_blame_point(workload: str, config: str, *, size: int,
                    duration_ns: int, seed: int = 0,
                    accuracy: str = "exact",
                    client_config: str = "local", ddio: bool = True,
                    components: Optional[Dict] = None) -> Dict:
    """Run one experiment point with blame collection attached and
    return its :func:`build_report` dict (plus point metadata, the
    workload result, and the session's counters for ``obs diff``)."""
    from repro.experiments.runners import run_point
    from repro.obs.session import ObsSession

    obs = ObsSession(enabled=True, blame=True)
    result = run_point(workload, config, size, duration_ns, seed=seed,
                       accuracy=accuracy, components=components, obs=obs,
                       client_config=client_config, ddio=ddio)
    point = {"workload": workload, "config": config, "size": size,
             "duration_ns": duration_ns, "seed": seed,
             "accuracy": accuracy}
    if workload == "rr":
        point["client_config"] = client_config
        point["ddio"] = ddio
    counters = {name: value
                for name, value in obs.collect(include_detail=False).items()
                if isinstance(value, (int, float))}
    return build_report(obs.blame, point=point, result=result,
                        counters=counters)

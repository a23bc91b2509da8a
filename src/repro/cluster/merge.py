"""The fleet merge: fold per-server shards into one fleet view.

Each worker process ships a plain-JSON dict (digests, counters, obs
values, utilization series).  The merge layer is pure arithmetic over
those dicts — digest merging is bucket-count addition (associative and
order-independent, so the fleet percentiles do not depend on which
worker finished first), obs values land in one
:class:`~repro.obs.registry.MetricsRegistry` under per-server
namespaces (``srv0.`` ...), and the whole result reduces to a canonical
sha256 **fleet fingerprint**: same spec + master seed => same
fingerprint, regardless of ``--jobs``, process scheduling, or cache
hits.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.cluster.spec import FleetSpec
from repro.metrics.collect import LatencyDigest
from repro.obs.export import to_prometheus
from repro.obs.registry import MetricsRegistry


class FleetResult:
    """Merged view of one fleet run."""

    def __init__(self, spec: FleetSpec, master_seed: int,
                 servers: List[Dict]):
        if len(servers) != spec.servers:
            raise ValueError(f"expected {spec.servers} server results, "
                             f"got {len(servers)}")
        self.spec = spec
        self.master_seed = master_seed
        self.servers = sorted(servers, key=lambda s: s["server"])
        self.digest = LatencyDigest()
        self.epoch_digests: Dict[int, LatencyDigest] = {}
        #: Fleet-wide blame (None unless the shards ran with blame=True):
        #: per-domain digests and tail maps merge by addition, exactly
        #: like the latency digests, so fleet-wide p99 blame is as
        #: order-independent as the fleet percentiles.
        self.blame = None
        for shard in self.servers:
            self.digest.merge(LatencyDigest.from_dict(shard["digest"]))
            for key, data in shard["epoch_digests"].items():
                epoch = int(key)
                merged = self.epoch_digests.setdefault(epoch,
                                                       LatencyDigest())
                merged.merge(LatencyDigest.from_dict(data))
            blame_data = shard.get("blame")
            if blame_data:
                from repro.obs.blame import BlameCollector
                if self.blame is None:
                    self.blame = BlameCollector()
                self.blame.merge(BlameCollector.from_dict(blame_data))

    # ----------------------------------------------------------- counters

    def _total(self, key: str) -> int:
        return sum(shard[key] for shard in self.servers)

    @property
    def planned(self) -> int:
        return self._total("planned")

    @property
    def served(self) -> int:
        return self._total("served")

    @property
    def lost(self) -> int:
        return self._total("lost")

    @property
    def churn(self) -> int:
        return sum(sum(shard["churn_by_epoch"])
                   for shard in self.servers)

    @property
    def ktps(self) -> float:
        return sum(shard["ktps"] for shard in self.servers)

    def dead_servers(self) -> List[int]:
        return [shard["server"] for shard in self.servers
                if shard["died_at"] is not None]

    def percentile(self, p: float) -> int:
        """Fleet-wide latency percentile over every served transaction."""
        return self.digest.percentile(p)

    def blame_report(self, domain: str = "txn") -> Dict:
        """Fleet-wide per-stage blame (queue wait vs service time for
        the transaction domain) over the merged shards."""
        if self.blame is None:
            raise ValueError("fleet ran without blame=True shards")
        from repro.obs.blame import build_report
        return build_report(self.blame, domain=domain)

    # ------------------------------------------------------- observability

    def registry(self) -> MetricsRegistry:
        """One merged registry: every server's collected obs values under
        its own ``srv<N>`` namespace, plus fleet-level rollups."""
        registry = MetricsRegistry(enabled=True)
        for shard in self.servers:
            registry.absorb(shard["obs"],
                            namespace=f"srv{shard['server']}")
        rollups = {
            "fleet.servers": self.spec.servers,
            "fleet.dead_servers": len(self.dead_servers()),
            "fleet.connections": self.spec.connections,
            "fleet.txn.planned": self.planned,
            "fleet.txn.served": self.served,
            "fleet.txn.lost": self.lost,
            "fleet.conn.churn": self.churn,
            "fleet.ktps": self.ktps,
        }
        if self.digest.count:
            rollups["fleet.latency.p50_ns"] = self.percentile(50)
            rollups["fleet.latency.p99_ns"] = self.percentile(99)
        registry.absorb(rollups)
        return registry

    def prometheus(self) -> str:
        """Per-server ``server=`` labelled exposition blocks plus the
        merged fleet rollups, as one scrape body."""
        parts = []
        for shard in self.servers:
            registry = MetricsRegistry(enabled=True)
            registry.absorb(shard["obs"])
            parts.append(to_prometheus(
                registry, labels={"server": str(shard["server"])}))
        fleet = MetricsRegistry(enabled=True)
        fleet.absorb({name: value
                      for name, value in self.registry().collect().items()
                      if name.startswith("fleet.")})
        parts.append(to_prometheus(fleet))
        return "".join(parts)

    # -------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """Canonical sha256 over everything the fleet run produced.

        The hash covers the sorted per-server shards verbatim (counters,
        digests, obs values, series), so *any* behavioural divergence
        between two runs — different jobs count, resumed from cache,
        re-run months later — shows up as a fingerprint mismatch.
        """
        payload = json.dumps({
            "spec": self.spec.to_dict(),
            "master_seed": self.master_seed,
            "servers": self.servers,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> Dict:
        """The headline numbers one row of fig16 reports."""
        out = {
            "servers": self.spec.servers,
            "connections": self.spec.connections,
            "planned": self.planned,
            "served": self.served,
            "lost": self.lost,
            "churn": self.churn,
            "ktps": round(self.ktps, 3),
            "dead_servers": len(self.dead_servers()),
        }
        if self.digest.count:
            out["p50_ns"] = self.percentile(50)
            out["p99_ns"] = self.percentile(99)
        return out

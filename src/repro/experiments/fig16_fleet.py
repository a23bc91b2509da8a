"""Fig 16 (fleet extension): rack-scale projection of the NUDMA story.

The paper evaluates one dual-socket server; this experiment asks the
datacenter question the introduction motivates — what does nonuniform
DMA cost a *fleet*?  N octoNIC servers stand behind a deterministic L4
load balancer serving a million-connection client fleet (Zipf-skewed
request weights, connection churn, a diurnal load curve, slow readers,
incast bursts), and three scenarios run under both the ``ioctopus`` and
``remote`` arrangements:

* ``baseline``   — steady fleet: the ioct/remote latency gap at scale;
* ``pf-flap``    — server 0's *serving* PF is surprise-removed mid-run:
  the octoNIC team driver fails over (a latency blip, zero loss), while
  standard firmware loses the netdev — the LB declares the server dead
  an epoch later and survivors absorb its blocks;
* ``server-down`` — server 0 dies outright under both arrangements
  (the LB reaction path itself, no failover story).

The six fleets run as one :func:`~repro.cluster.run_fleets` batch, so
their shared client population is generated once, and each distinct
server point is simulated once: servers 1..N-1 of the ioctopus pf-flap
fleet see exactly the baseline's input, so 8 servers take 41
simulations rather than 48.  Each server simulates in its own worker
process (``--jobs``), and the merged fleet digests/metrics carry a
determinism fingerprint: the same ``--servers/--connections`` and
master seed reproduce the identical fleet, at any jobs count.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import FleetSpec, run_fleets
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.sweep import current_jobs

DEFAULT_SERVERS = 8
DEFAULT_CONNECTIONS = 1_048_576

#: CLI overrides (ioctopus-repro fig16 --servers 8 --connections ...).
_servers_override: Optional[int] = None
_connections_override: Optional[int] = None


def configure_fleet(servers: Optional[int] = None,
                    connections: Optional[int] = None) -> None:
    """Set (or clear, with None) the fleet size overrides."""
    global _servers_override, _connections_override
    if servers is not None and servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if connections is not None and connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    _servers_override = servers
    _connections_override = connections


@register
class Fig16Fleet(Experiment):
    name = "fig16"
    paper_ref = "fleet extension (rack-scale projection)"
    description = ("N octoNIC servers behind a deterministic LB serving "
                   "a ~1M-connection client fleet: fleet p50/p99 with "
                   "and without IOctopus, plus whole-PF and whole-server "
                   "failover under load (one worker process per server)")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity)
        servers = _servers_override or DEFAULT_SERVERS
        connections = _connections_override or DEFAULT_CONNECTIONS
        jobs = current_jobs()
        result = self.result(
            ["scenario", "config", "served", "lost", "dead",
             "ktps", "p50_us", "p99_us"],
            notes=f"{servers} servers x {connections} connections, "
                  f"{duration / 1e6:.0f} ms, jobs={jobs}; pf-flap removes "
                  f"server 0's serving PF mid-run (ioctopus fails over; "
                  f"standard firmware loses the server)")
        scenarios = (
            ("baseline", {}),
            ("pf-flap", {"pf_flap": (0, duration // 3, duration // 4)}),
            ("server-down", {"server_down": (0, duration // 2)}),
        )
        cells = [(scenario, config,
                  FleetSpec(servers=servers, connections=connections,
                            config=config, duration_ns=duration, **faults))
                 for scenario, faults in scenarios
                 for config in ("ioctopus", "remote")]
        # One batch: the six fleets share one client population, which
        # run_fleets then generates once rather than once per fleet, and
        # the pf-flap ioctopus fleet shares all servers but 0 with the
        # baseline, which run_fleets then simulates once.
        fleets = run_fleets([spec for _, _, spec in cells], master_seed=0,
                            jobs=jobs)
        for (scenario, config, _), fleet in zip(cells, fleets):
            summary = fleet.summary()
            result.add(
                scenario, config, summary["served"], summary["lost"],
                summary["dead_servers"], round(summary["ktps"], 1),
                round(summary.get("p50_ns", 0) / 1e3, 1),
                round(summary.get("p99_ns", 0) / 1e3, 1),
            )
        return result

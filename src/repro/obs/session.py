"""ObsSession: one handle bundling registry, tracer and sampler.

The session is how callers opt a run into observability::

    obs = ObsSession(enabled=True, trace=True)
    result = run_pktgen("remote", 256, duration, obs=obs)
    print(obs.utilization_table())

``attach`` binds the registry's gauges over an existing
:class:`~repro.core.configurations.Testbed`, swaps the machines' tracer
for the session's (devices and drivers look ``machine.tracer`` up at
call time, so a post-construction swap is enough), and starts the
utilization sampler.  Everything is read-only with respect to the
model: attaching a session — enabled or not — never changes simulated
results, which the determinism-with-obs golden pins.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.collect import format_table
from repro.obs.export import to_perfetto, to_prometheus
from repro.obs.instrument import (
    instrument_machine,
    instrument_net_driver,
    instrument_netstack,
    instrument_nvme_driver,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import DEFAULT_INTERVAL_NS, UtilizationSampler
from repro.sim.tracing import Tracer


class ObsSession:
    """One run's observability: metrics, traces, samples."""

    def __init__(self, enabled: bool = True, trace: bool = False,
                 flows: bool = True,
                 sample_interval_ns: int = DEFAULT_INTERVAL_NS,
                 blame: bool = False):
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer: Optional[Tracer] = (
            Tracer(enabled=True, flows=flows) if trace else None)
        self.blame = None
        if blame:
            from repro.obs.blame import BlameCollector
            self.blame = BlameCollector()
            if self.tracer is None:
                # Blame rides on the flow plumbing but needs no records:
                # an enabled tracer with flows off opens blame-only
                # flows and collects nothing else.
                self.tracer = Tracer(enabled=True, flows=False)
            self.tracer.blame = self.blame
        self.sample_interval_ns = sample_interval_ns
        self.sampler: Optional[UtilizationSampler] = None
        self._attached = False

    # ------------------------------------------------------------ attach

    def attach(self, testbed, horizon_ns: Optional[int] = None,
               include_client: bool = False) -> "ObsSession":
        """Wire the session into a freshly built testbed.

        ``horizon_ns`` bounds the sampler (normally the point's simulated
        duration); without it no sampler runs.  The client machine is
        skipped by default — the paper's questions are all server-side.
        """
        if self._attached:
            raise ValueError("session already attached")
        self._attached = True
        server = testbed.server
        if self.tracer is not None:
            server.machine.tracer = self.tracer
            testbed.client.machine.tracer = self.tracer
        instrument_machine(self.registry, server.machine, "srv")
        instrument_net_driver(self.registry, server.driver, "srv.nic")
        instrument_netstack(self.registry, server.stack, "srv")
        if include_client:
            instrument_machine(self.registry, testbed.client.machine, "cli")
            instrument_net_driver(self.registry, testbed.client.driver,
                                  "cli.nic")
        if self.enabled and horizon_ns and self.sample_interval_ns:
            self.sampler = self._build_sampler(testbed)
            self.sampler.start(horizon_ns)
        return self

    def attach_storage(self, driver, prefix: str = "ssd") -> "ObsSession":
        """Bind an NVMe driver (fio/octoSSD setups) into the session."""
        instrument_nvme_driver(self.registry, driver, prefix)
        if self.tracer is not None:
            driver.machine.tracer = self.tracer
        return self

    def _build_sampler(self, testbed) -> UtilizationSampler:
        sampler = UtilizationSampler(testbed.env, self.sample_interval_ns)
        machine = testbed.server.machine
        for link in machine.interconnect.links():
            sampler.add_rate(
                f"srv.qpi.{link.src_node}to{link.dst_node}.util",
                lambda ln=link: ln.busy_ns)
        for node in machine.nodes:
            dram = node.dram
            sampler.add_rate(
                f"srv.node{node.node_id}.dram.gbps",
                lambda d=dram: (d.read_bytes + d.write_bytes) * 8)
            sampler.add_gauge(
                f"srv.node{node.node_id}.ddio.hit_rate",
                lambda c=node.llc: (
                    c.hits_bytes / (c.hits_bytes + c.miss_bytes)
                    if c.hits_bytes + c.miss_bytes else 0.0))
        device = testbed.server.nic
        for pf in device.pfs:
            sampler.add_rate(
                f"srv.nic.pf{pf.pf_id}.rx_gbps",
                lambda d=device, i=pf.pf_id: d.pf_rx_bytes(i) * 8)
        return sampler

    # ----------------------------------------------------------- surface

    def collect(self, include_detail: bool = True):
        return self.registry.collect(include_detail=include_detail)

    def utilization_table(self, full: bool = False,
                          title: str = "per-component utilization") -> str:
        """The ``repro obs`` table: component / metric / value rows.

        ``full=False`` folds away ``detail=True`` instruments (per-queue,
        per-core) so the table stays the curated per-component view.
        """
        rows: List[list] = []
        for name, value in sorted(
                self.collect(include_detail=full).items()):
            component, _, metric = name.rpartition(".")
            rows.append([component, metric, value])
        return format_table(("component", "metric", "value"), rows,
                            title=title)

    def prometheus(self) -> str:
        return to_prometheus(self.registry)

    def perfetto_json(self, process_name: str = "repro") -> str:
        tracer = self.tracer if self.tracer is not None else Tracer()
        return to_perfetto(tracer, registry=self.registry,
                           sampler=self.sampler,
                           process_name=process_name)

    def blame_report(self, domain: str = "flow") -> dict:
        """Per-stage latency budgets (:func:`repro.obs.blame.build_report`)."""
        if self.blame is None:
            raise ValueError("session was not built with blame=True")
        from repro.obs.blame import build_report
        return build_report(self.blame, domain=domain)

    def blame_table(self, domain: str = "flow") -> str:
        from repro.obs.blame import render_text
        return render_text(self.blame_report(domain=domain))

"""Bind registry gauges over the simulator's component counters.

Instrumentation here is **read-time binding**: each gauge closes over a
component and reads its existing counters only when the registry is
collected.  No model hot path gains an instrument call — the inventory
below is exactly the per-component visibility the paper's analysis uses
(§2, §5.1): QPI link occupancy, DDIO hit/miss/invalidate rates, DRAM
bandwidth, per-PF PCIe traffic and queue-depth high-water marks,
doorbell/interrupt/retry counts, and failover state transitions.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def instrument_machine(reg: MetricsRegistry, machine, prefix: str) -> None:
    """QPI links, LLC/DDIO, DRAM, and per-core utilisation."""
    if not reg.enabled:
        return
    for link in machine.interconnect.links():
        base = f"{prefix}.qpi.{link.src_node}to{link.dst_node}"
        reg.gauge(f"{base}.occupancy", fn=link.utilization,
                  help="QPI link busy fraction since t=0")
        reg.gauge(f"{base}.bytes", fn=lambda ln=link: ln.bytes_total,
                  help="bytes carried")
        reg.gauge(f"{base}.throttle",
                  fn=lambda ln=link: ln.throttle_factor,
                  help="fault-injection throttle factor", detail=True)
    env = machine.env
    for node in machine.nodes:
        base = f"{prefix}.node{node.node_id}"
        llc, dram = node.llc, node.dram
        reg.gauge(f"{base}.ddio.hit_rate",
                  fn=lambda c=llc: _ratio(c.hits_bytes,
                                          c.hits_bytes + c.miss_bytes),
                  help="LLC hit fraction of CPU bytes accessed")
        reg.gauge(f"{base}.ddio.occupancy",
                  fn=lambda c=llc: _ratio(c.ddio_occupied, c.ddio_capacity),
                  help="DDIO ways fill fraction")
        reg.gauge(f"{base}.ddio.hits_bytes",
                  fn=lambda c=llc: c.hits_bytes, detail=True)
        reg.gauge(f"{base}.ddio.miss_bytes",
                  fn=lambda c=llc: c.miss_bytes, detail=True)
        reg.gauge(f"{base}.ddio.invalidated_bytes",
                  fn=lambda c=llc: c.invalidated_bytes,
                  help="bytes invalidated by remote DMA writes")
        reg.gauge(f"{base}.dram.gbps",
                  fn=lambda d=dram, e=env: (
                      (d.read_bytes + d.write_bytes) * 8 / e.now
                      if e.now else 0.0),
                  help="DRAM read+write Gb/s since t=0")
        reg.gauge(f"{base}.dram.read_bytes",
                  fn=lambda d=dram: d.read_bytes, detail=True)
        reg.gauge(f"{base}.dram.write_bytes",
                  fn=lambda d=dram: d.write_bytes, detail=True)
        for core in node.cores:
            reg.gauge(f"{base}.core{core.core_id}.utilization",
                      fn=lambda c=core, e=env: (
                          min(1.0, c.busy_ns / e.now) if e.now else 0.0),
                      detail=True)


def instrument_pfs(reg: MetricsRegistry, device, prefix: str) -> None:
    """Per-PF PCIe fabric traffic and liveness for any MultiPfDevice."""
    if not reg.enabled:
        return
    for pf in device.pfs:
        base = f"{prefix}.pf{pf.pf_id}"
        reg.gauge(f"{base}.alive",
                  fn=lambda p=pf: 1.0 if p.alive else 0.0,
                  help="0 after surprise removal until recovery")
        reg.gauge(f"{base}.pcie.up_bytes",
                  fn=lambda p=pf: p.link.upstream.bytes_total,
                  help="device->host DMA bytes")
        reg.gauge(f"{base}.pcie.down_bytes",
                  fn=lambda p=pf: p.link.downstream.bytes_total,
                  help="host->device DMA bytes")
        reg.gauge(f"{base}.pcie.up_occupancy",
                  fn=lambda p=pf: p.link.upstream.utilization(),
                  help="upstream link busy fraction since t=0")
        reg.gauge(f"{base}.pcie.lanes",
                  fn=lambda p=pf: p.link.active_lanes, detail=True)


def instrument_net_driver(reg: MetricsRegistry, driver, prefix: str) -> None:
    """NIC driver + device: per-PF traffic, doorbell/completion/retry
    counts, failover transitions and DmaQueuePair depth HWMs."""
    if not reg.enabled:
        return
    device = driver.device
    instrument_pfs(reg, device, prefix)
    reg.gauge(f"{prefix}.doorbell.rings",
              fn=lambda d=driver: d.doorbell.rings,
              help="MMIO doorbells rung")
    reg.gauge(f"{prefix}.completion.interrupts",
              fn=lambda d=driver: d.completion.interrupts,
              help="moderated interrupts delivered")
    reg.gauge(f"{prefix}.completion.entries",
              fn=lambda d=driver: d.completion.entries,
              help="completion entries consumed")
    reg.gauge(f"{prefix}.retries", fn=lambda d=driver: d.retries,
              help="submissions retried after DeviceGoneError")
    for counter in ("steering_updates", "failovers", "recoveries",
                    "rules_expired"):
        if hasattr(driver, counter):
            reg.gauge(f"{prefix}.{counter}",
                      fn=lambda d=driver, c=counter: getattr(d, c),
                      help="failover state transitions"
                      if counter in ("failovers", "recoveries") else "")
    queues = list(driver.queues.rx) + list(driver.queues.tx)
    for pf in device.pfs:
        base = f"{prefix}.pf{pf.pf_id}"
        reg.gauge(f"{base}.rx_bytes",
                  fn=lambda d=device, i=pf.pf_id: d.pf_rx_bytes(i),
                  help="payload bytes DMA-written through this PF")
        reg.gauge(f"{base}.tx_bytes",
                  fn=lambda d=device, i=pf.pf_id: d.pf_tx_bytes(i),
                  help="payload bytes DMA-read through this PF")
        reg.gauge(f"{base}.queue_depth_hwm",
                  fn=lambda qs=queues, p=pf: max(
                      (q.outstanding_hwm for q in qs if q.pf is p),
                      default=0),
                  help="deepest ring residency among queues on this PF")
    for queue in queues:
        base = f"{prefix}.{queue.direction}q{queue.queue_id}"
        reg.gauge(f"{base}.depth_hwm",
                  fn=lambda q=queue: q.outstanding_hwm, detail=True)
        reg.gauge(f"{base}.packets",
                  fn=lambda q=queue: q.packets_total, detail=True)
        reg.gauge(f"{base}.pf",
                  fn=lambda q=queue: (
                      q.pf.pf_id if q.pf is not None else -1),
                  detail=True)


def instrument_netstack(reg: MetricsRegistry, stack, prefix: str) -> None:
    """Socket population and message counts for one host's stack."""
    if not reg.enabled:
        return
    table = stack._sockets_by_thread
    reg.gauge(f"{prefix}.netstack.sockets",
              fn=lambda t=table: sum(len(socks) for socks in t.values()),
              help="open sockets")
    reg.gauge(f"{prefix}.netstack.rx_messages",
              fn=lambda t=table: sum(s.rx_messages for socks in t.values()
                                     for s in socks))
    reg.gauge(f"{prefix}.netstack.tx_messages",
              fn=lambda t=table: sum(s.tx_messages for socks in t.values()
                                     for s in socks))

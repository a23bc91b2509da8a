"""Ablations over the design choices DESIGN.md calls out.

These are not paper figures; they probe the knobs the paper's design
discussion turns on:

* ``abl_wiring`` — §3.2's three wiring options: per-operation latency,
  lane and power cost of bifurcation vs. a programmable PCIe switch.
* ``abl_sg``     — §3.3's IOctoSG: transmits whose fragments span NUMA
  nodes, with and without per-fragment PF hints.
* ``abl_octossd``— §5.4's future work: the fio-vs-STREAM experiment with
  dual-port octoSSDs instead of single-port drives.
* ``abl_mixed_io``— NIC + NVMe colocation: TCP Rx and remote fio share
  socket 1 while both devices attach per configuration; with standard
  single-socket attachment the SSD fleet's DMA starves the TCP stream
  on the shared UPI direction, one PF per socket removes the contention.
* ``abl_ddio``   — sensitivity of local multi-flow Rx to LLC capacity
  (and with it the DDIO slice).
* ``abl_window`` — sensitivity of congested remote Rx to the DMA
  engine's outstanding-transaction window.
* ``abl_scale``  — IOctopus on a 4-socket machine (one x4 PF per socket).

Component-level leave-one-out ablation (which *mechanism* earns its
cost) is a separate engine: :mod:`repro.experiments.ablate`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.configurations import (
    Testbed,
    TestbedBuilder,
    attach_octossd_fleet,
)
from repro.core.sg import (
    SgFragment,
    plan_fragments,
    transmit_with_hints,
    transmit_without_hints,
)
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.experiments.fig15_nvme import run_fio_point
from repro.experiments.runners import MembwProbe, warmup_of
from repro.nic.packet import Flow
from repro.nic.wire import EthernetWire
from repro.sim.engine import Environment
from repro.topology.constants import dell_r730_spec
from repro.units import KB, MB
from repro.workloads.fio import spawn_fio_fleet
from repro.workloads.netperf import TcpStream
from repro.workloads.pktgen import Pktgen
from repro.workloads.stream_bench import spawn_stream_pairs


@register
class AblWiring(Experiment):
    name = "abl_wiring"
    paper_ref = "§3.2 wiring alternatives"
    description = ("bifurcation vs programmable PCIe switch: pktgen rate, "
                   "per-op latency tax, lanes and power")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity)
        result = self.result(
            ["wiring", "pktgen_mpps", "doorbell_ns", "lanes", "power_w"],
            notes="the switch trades per-operation latency, lanes and "
                  "power for runtime flexibility (reattach, P2P DMA)")
        for wiring in ("bifurcation", "switch"):
            env = Environment()
            wire = EthernetWire(env)
            host = (TestbedBuilder("ioctopus").wiring(wiring)
                    .pf_name("octo").build_host(env=env, wire=wire))
            machine = host.machine
            core = machine.cores_on_node(0)[0]
            workload = Pktgen(host, core, 1500, duration,
                              warmup_of(duration))
            env.run(until=duration + duration // 5)
            result.add(wiring, round(workload.mpps(), 2),
                       host.nic.pfs[0].mmio_latency(0),
                       host.wiring_lanes, host.wiring_power_w)
        return result


@register
class AblSg(Experiment):
    name = "abl_sg"
    paper_ref = "§3.3 IOctoSG"
    description = ("transmit buffers spanning NUMA nodes (sendfile-style): "
                   "per-fragment PF hints vs a single fixed PF")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        testbed = Testbed("ioctopus")
        machine = testbed.server.machine
        device = testbed.server.nic
        result = self.result(
            ["fragments", "hinted_delay_us", "fixed_pf_delay_us",
             "speedup", "interconnect_bytes_fixed"],
            notes="hinted reads never cross the interconnect; a fixed PF "
                  "pulls half its fragments across it")
        for n_fragments in (2, 8, 32, 128):
            frag_bytes = 64 * KB
            fragments = [
                SgFragment(machine.alloc_region(f"pg{i}", i % 2,
                                                frag_bytes), frag_bytes)
                for i in range(n_fragments)]
            hints = plan_fragments(device, fragments)
            hinted = transmit_with_hints(device, hints)
            before = sum(link.bytes_total
                         for link in machine.interconnect.links())
            fixed = transmit_without_hints(device, 0, hints)
            crossed = sum(link.bytes_total
                          for link in machine.interconnect.links()) - before
            result.add(n_fragments, round(hinted / 1000, 2),
                       round(fixed / 1000, 2),
                       round(fixed / max(hinted, 1), 2), crossed)
        return result


@register
class AblOctoSsd(Experiment):
    name = "abl_octossd"
    paper_ref = "§5.4 future work (octoSSD)"
    description = ("the Fig 15 scenario with dual-port octoSSDs: storage "
                   "NUDMA disappears like the NIC's did")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity) * 2
        result = self.result(
            ["streams", "single_port_norm", "octossd_norm"],
            notes="normalised to each arrangement running alone")
        stream_counts = (0, 3, 5, 10)
        runs = self.sweep(run_fio_point, [
            dict(n_streams=streams, duration_ns=duration,
                 octo_mode=octo_mode)
            for streams in stream_counts for octo_mode in (False, True)])
        # stream_counts starts at 0, so the unloaded baselines are the
        # first pair (deterministic: same points, same metrics).
        base_std = runs[0]["fio_gbps"]
        base_octo = runs[1]["fio_gbps"]
        for i, streams in enumerate(stream_counts):
            std, octo = runs[2 * i:2 * i + 2]
            result.add(streams, round(std["fio_gbps"] / base_std, 2),
                       round(octo["fio_gbps"] / base_octo, 2))
        return result


MIXED_SSDS = 4
MIXED_FIO_THREADS = 8


def run_mixed_io_point(config: str, duration_ns: int) -> dict:
    """One colocation point: TCP Rx netperf plus fio on socket 1.

    With ``config='remote'`` the NIC and the SSD fleet attach to socket
    0 only, so the TCP payload DMA and the SSD read DMA share the same
    UPI direction toward the workloads.  With ``config='ioctopus'`` both
    devices have one PF per socket and neither transfer crosses it.
    """
    octo = config == "ioctopus"
    testbed = Testbed(config)
    host = testbed.server
    machine = host.machine
    warmup = duration_ns // 5
    tcp = TcpStream(host, machine.cores_on_node(1)[0], Flow.make(0),
                    64 * KB, "rx", duration_ns, warmup)
    drivers = attach_octossd_fleet(machine, octo, MIXED_SSDS)
    fio_cores = machine.cores_on_node(1)[1:1 + MIXED_FIO_THREADS]
    fleet = spawn_fio_fleet(host, fio_cores, drivers, duration_ns, warmup)
    testbed.run(duration_ns + warmup)
    return {
        "tcp_gbps": tcp.throughput_gbps(),
        "fio_gbps": sum(f.throughput_gbps() for f in fleet),
    }


@register
class AblMixedIo(Experiment):
    name = "abl_mixed_io"
    paper_ref = "§2.2 + §5.4 (NUDMA compounds across devices)"
    description = ("TCP Rx and remote fio colocated on one socket with "
                   "the NIC and the SSD fleet attached standard (socket "
                   "0 only) vs IOctopus (one PF per socket): on the "
                   "shared UPI direction the SSD DMA starves the TCP "
                   "stream; per-socket PFs restore it while fio stays "
                   "flash-bound throughout")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity) * 2
        runs = self.sweep(run_mixed_io_point, [
            dict(config=config, duration_ns=duration)
            for config in ("remote", "ioctopus")])
        result = self.result(
            ["config", "tcp_gbps", "fio_gbps", "combined_gbps"],
            notes="TCP Rx (64 KB messages) on core 1/0 plus "
                  f"{MIXED_FIO_THREADS} fio threads over {MIXED_SSDS} "
                  "SSDs on the same socket")
        for config, point in zip(("remote", "ioctopus"), runs):
            result.add(config, round(point["tcp_gbps"], 1),
                       round(point["fio_gbps"], 1),
                       round(point["tcp_gbps"] + point["fio_gbps"], 1))
        return result


@register
class AblDdio(Experiment):
    name = "abl_ddio"
    paper_ref = "§2.2 DDIO sensitivity"
    description = ("8 local TCP Rx flows vs the LLC slice DDIO may "
                   "allocate into: a starved slice reintroduces memory "
                   "traffic even for local DMA")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity)
        result = self.result(
            ["llc_total_mb", "aggregate_rx_gbps", "local_membw_gbps",
             "membw_per_gbit"],
            notes="shrinking the LLC (and with it the DDIO slice and "
                  "consumer windows) pushes local DMA toward remote-like "
                  "memory behaviour; paper §5.1.1 multi-core shows the "
                  "full-size case")
        for llc_mb in (70, 35, 18, 9):
            spec = dell_r730_spec()
            spec = replace(spec, cpu=replace(spec.cpu,
                                             llc_bytes=llc_mb * MB))
            testbed = Testbed("local", spec=spec)
            host = testbed.server
            cores = host.machine.cores_on_node(0)[:8]
            warmup = warmup_of(duration)
            workloads = [TcpStream(host, core, Flow.make(i), 64 * KB,
                                   "rx", duration, warmup)
                         for i, core in enumerate(cores)]
            probe = MembwProbe(testbed, duration)
            testbed.run(duration + duration // 5)
            total = sum(w.throughput_gbps() for w in workloads)
            result.add(llc_mb, round(total, 2), round(probe.gbps, 2),
                       round(probe.gbps / total, 3) if total else 0.0)
        return result


@register
class AblWindow(Experiment):
    name = "abl_window"
    paper_ref = "§5.2 DMA-window sensitivity"
    description = ("remote TCP Rx under 6 STREAM pairs vs the DMA "
                   "engine's outstanding-line window")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity)
        result = self.result(
            ["outstanding_lines", "remote_rx_gbps"],
            notes="a deeper window hides more of the congested "
                  "interconnect's latency, exactly like MLP in a core")
        for window in (8, 16, 32, 64, 128):
            testbed = Testbed("remote")
            testbed.server.machine.memory.dma_outstanding_lines = window
            testbed.client.machine.memory.dma_outstanding_lines = window
            warmup = warmup_of(duration)
            workload = TcpStream(testbed.server, testbed.server_core(0),
                                 Flow.make(0), 64 * KB, "rx", duration,
                                 warmup)
            spawn_stream_pairs(testbed.server, 6, duration, warmup,
                               skip_cores=[testbed.server_core(0)])
            testbed.run(duration + duration // 5)
            result.add(window, round(workload.throughput_gbps(), 2))
        return result


@register
class AblScale(Experiment):
    name = "abl_scale"
    paper_ref = "§3.2 (multi-socket generality)"
    description = ("IOctopus on a 4-socket machine: one x4 PF per socket "
                   "still makes every placement local")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity)
        spec = dell_r730_spec()
        spec = replace(spec, num_nodes=4)
        result = self.result(
            ["workload_node", "standard_pf0_gbps", "octo_gbps"],
            notes="standard = single PF on node 0; octo = one PF per "
                  "socket via the team driver")
        for node in range(4):
            rates = {}
            for arrangement in ("standard", "octo"):
                env = Environment()
                wire = EthernetWire(env)
                if arrangement == "octo":
                    builder = (TestbedBuilder("ioctopus").spec(spec)
                               .pf_name("o4"))
                else:
                    builder = (TestbedBuilder("local").spec(spec)
                               .attach_nodes([0]).pf_name("s4"))
                host = builder.build_host(env=env, wire=wire)
                machine = host.machine
                core = machine.cores_on_node(node)[0]
                workload = TcpStream(host, core, Flow.make(0), 64 * KB,
                                     "rx", duration, warmup_of(duration))
                env.run(until=duration + duration // 5)
                rates[arrangement] = workload.throughput_gbps()
            result.add(node, round(rates["standard"], 2),
                       round(rates["octo"], 2))
        return result

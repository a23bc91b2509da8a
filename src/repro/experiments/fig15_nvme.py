"""Figure 15 (§5.4): NVMe throughput under interconnect congestion.

Four SSDs attached to socket 0 serve 8 fio threads pinned to socket 1
(remote, direct I/O) while STREAM instances on socket 0 write into socket
1's memory, congesting the same UPI direction as the SSD DMA.
"""

from __future__ import annotations

from typing import List

from repro.core.configurations import TestbedBuilder, attach_octossd_fleet
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.topology.constants import dell_skylake_spec
from repro.workloads.fio import spawn_fio_fleet
from repro.workloads.stream_bench import StreamThread

N_SSDS = 4
FIO_THREADS = 8
STREAM_COUNTS = [0, 1, 2, 3, 4, 5, 6, 8, 10]


def build_nvme_host(octo_mode: bool = False) -> tuple:
    """A Skylake server with 4 SSDs on socket 0, or (``octo_mode``)
    4 dual-port octoSSDs with one port per socket, teamed."""
    host = (TestbedBuilder("local").spec(dell_skylake_spec())
            .attach_nodes([0]).pf_name("mgmt").build_host())
    return host, attach_octossd_fleet(host.machine, octo_mode, N_SSDS)


def run_fio_point(n_streams: int, duration_ns: int,
                  octo_mode: bool = False) -> dict:
    """Remote fio (on socket 1) beside ``n_streams`` STREAM writers."""
    host, drivers = build_nvme_host(octo_mode=octo_mode)
    machine = host.machine
    warmup = duration_ns // 5
    fio_cores = machine.cores_on_node(1)[:FIO_THREADS]
    fleet = spawn_fio_fleet(host, fio_cores, drivers, duration_ns, warmup)
    antagonists: List[StreamThread] = []
    for i in range(n_streams):
        antagonists.append(StreamThread(
            host, machine.cores_on_node(0)[i], target_node=1,
            kind="write", duration_ns=duration_ns, warmup_ns=warmup))
    machine.env.run(until=duration_ns + duration_ns // 5)
    return {
        "fio_gbps": sum(f.throughput_gbps() for f in fleet),
        "stream_gbps": sum(s.bandwidth_gbps() for s in antagonists),
    }


@register
class Fig15Nvme(Experiment):
    name = "fig15"
    paper_ref = "Figure 15, §5.4"
    description = ("remote fio (8 threads, 128 KB async direct reads, "
                   "iodepth 32) vs UPI-congesting STREAM: fio degrades "
                   "by up to ~24%, flattening once the UPI saturates")

    def run(self, fidelity: str = "normal") -> ExperimentResult:
        duration = self.duration_ns(fidelity) * 2  # flash ops are slow
        runs = self.sweep(run_fio_point, [
            dict(n_streams=n, duration_ns=duration)
            for n in STREAM_COUNTS])
        # STREAM_COUNTS starts at 0, so the unloaded baseline is runs[0]
        # (deterministic: same point, same metrics).
        base = runs[0]["fio_gbps"]
        stream_alone = (run_fio_point_stream_alone(duration)
                        if base else 0.0)
        result = self.result(
            ["streams", "fio_gbps", "fio_normalized",
             "stream_normalized"],
            notes="normalised to each benchmark running alone, as in the "
                  "paper's figure")
        for n, point in zip(STREAM_COUNTS, runs):
            per_stream = (point["stream_gbps"] / n) if n else 0.0
            result.add(
                n,
                round(point["fio_gbps"], 1),
                round(point["fio_gbps"] / base, 2) if base else 0.0,
                round(per_stream / stream_alone, 2)
                if n and stream_alone else 1.0,
            )
        return result


def run_fio_point_stream_alone(duration_ns: int) -> float:
    """Bandwidth of a single STREAM instance with no fio running."""
    host, _ = build_nvme_host()
    machine = host.machine
    warmup = duration_ns // 5
    solo = StreamThread(host, machine.cores_on_node(0)[0], target_node=1,
                        kind="write", duration_ns=duration_ns,
                        warmup_ns=warmup)
    machine.env.run(until=duration_ns + duration_ns // 5)
    return solo.bandwidth_gbps()

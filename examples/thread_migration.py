#!/usr/bin/env python3
"""The Figure 14 scenario: migrate a busy receiver across sockets.

A netperf TCP Rx process starts on socket 0 (local to PF0) and is moved
to socket 1 with ``sched_setaffinity`` mid-run.  With the octoNIC, the
ARFS migration callback triggers an IOctoRFS update and traffic moves to
PF1 at full speed; with the standard firmware the flow is pinned to PF0's
netdev and throughput falls to the remote level.

Run:  python examples/thread_migration.py
"""

from repro.core import Testbed
from repro.nic.packet import Flow
from repro.units import KB
from repro.workloads import TcpStream

DURATION_NS = 400_000_000
MIGRATE_AT_NS = 200_000_000
SAMPLE_NS = 50_000_000


def run(config: str) -> None:
    testbed = Testbed(config)
    host = testbed.server
    label = "octoNIC" if config == "ioctopus" else "ethNIC (standard)"
    start = host.machine.cores_on_node(0)[0]
    target = host.machine.cores_on_node(1)[0]
    workload = TcpStream(host, start, Flow.make(0), 64 * KB, "rx",
                         DURATION_NS)

    def migrator():
        yield MIGRATE_AT_NS
        host.scheduler.set_affinity(workload.thread, target)
        print(f"    -> sched_setaffinity: core {start.core_id} "
              f"(node 0) => core {target.core_id} (node 1)")

    def sampler():
        # Difference the NIC's cumulative per-PF receive byte counters.
        last = [host.nic.pf_rx_bytes(0), host.nic.pf_rx_bytes(1)]
        while testbed.env.now < DURATION_NS:
            yield SAMPLE_NS
            t_ms = testbed.env.now / 1e6
            counts = [host.nic.pf_rx_bytes(0), host.nic.pf_rx_bytes(1)]
            pf0, pf1 = ((b - a) * 8 / SAMPLE_NS
                        for a, b in zip(last, counts))
            last = counts
            print(f"    t={t_ms:5.0f} ms  pf0={pf0:6.2f} Gb/s  "
                  f"pf1={pf1:6.2f} Gb/s")

    testbed.env.process(migrator(), name="migrator")
    testbed.env.process(sampler(), name="sampler")
    print(f"\n{label}:")
    testbed.run(DURATION_NS + SAMPLE_NS)


def main() -> None:
    print("TCP Rx throughput per physical function, sampled every 50 ms "
          f"(migration at {MIGRATE_AT_NS / 1e6:.0f} ms)")
    for config in ("ioctopus", "local"):
        run(config)
    print("\nThe octoNIC hands the flow to the newly-local PF without "
          "losing throughput;\nthe standard NIC cannot — its flow is "
          "chained to PF0's MAC, so it runs remote forever.")


if __name__ == "__main__":
    main()

"""`ioctopus-repro obs`: per-component utilization for one experiment
point, plus optional Perfetto trace / Prometheus dump / host profile.

Examples::

    ioctopus-repro obs                         # fig08 quick point
    ioctopus-repro obs --workload rr --trace /tmp/rr.json
    ioctopus-repro obs --config ioctopus --full --profile
    ioctopus-repro obs --prom /tmp/metrics.prom
    ioctopus-repro obs blame --workload rr --config remote
    ioctopus-repro obs diff --a-config ioctopus --b-config remote

The ``rr`` workload is the one to use with ``--trace``: its latency
path opens a flow per round trip, so the Perfetto view shows each
message as a connected arrow chain wire -> PF -> DMA -> stack -> app.
``obs blame`` replaces the utilization table with the per-stage latency
budget (:mod:`repro.obs.blame`); ``obs diff`` attributes the delta
between two configurations (:mod:`repro.obs.diff`).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import List, Optional

from repro.experiments.base import DURATIONS_MS
from repro.experiments.cli import positive_int
from repro.obs.session import ObsSession
from repro.sim.engine import ACCURACY_MODES
from repro.workloads.pktgen import MIN_PACKET_BYTES

WORKLOADS = ("pktgen", "tcp_rx", "tcp_tx", "rr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioctopus-repro obs",
        description="Run one experiment point with full observability "
                    "and print a per-component utilization table")
    parser.add_argument("--workload", default="pktgen", choices=WORKLOADS)
    parser.add_argument("--config", default="remote",
                        choices=("local", "remote", "ioctopus"),
                        help="server-side configuration (default: remote, "
                             "the NUDMA-afflicted case)")
    parser.add_argument("--packet-bytes", type=int, default=256,
                        help=f"pktgen packet size, at least "
                             f"{MIN_PACKET_BYTES} (default: 256, the "
                             f"fig08 knee)")
    parser.add_argument("--message-bytes", type=positive_int,
                        default=16384,
                        help="tcp_rx/tcp_tx/rr message size")
    parser.add_argument("--fidelity", default="quick",
                        choices=tuple(sorted(DURATIONS_MS)))
    parser.add_argument("--accuracy", default="exact",
                        choices=ACCURACY_MODES,
                        help="default exact: observability reads are "
                             "deterministic and comparable across runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample-interval-us", type=positive_int,
                        default=1000,
                        help="utilization sampling cadence in sim "
                             "microseconds (default: 1000)")
    parser.add_argument("--full", action="store_true",
                        help="include per-queue/per-core detail rows")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome/Perfetto JSON trace "
                             "(spans + flow arrows + counter tracks)")
    parser.add_argument("--prom", metavar="FILE",
                        help="write a Prometheus text-format dump")
    parser.add_argument("--profile", action="store_true",
                        help="run the point under cProfile and also "
                             "print the top functions by self time")
    return parser


def _parse_args(parser: argparse.ArgumentParser,
                argv: Optional[List[str]]) -> argparse.Namespace:
    """Parse ``argv``; a packet below pktgen's floor is a usage error."""
    args = parser.parse_args(argv)
    if args.packet_bytes < MIN_PACKET_BYTES:
        parser.error(f"argument --packet-bytes: must be >= "
                     f"{MIN_PACKET_BYTES}, got {args.packet_bytes}")
    return args


def _run_point(args, obs: ObsSession) -> dict:
    from repro.experiments.runners import (
        run_pktgen,
        run_tcp_rr,
        run_tcp_stream,
    )
    duration = DURATIONS_MS[args.fidelity] * 1_000_000
    common = dict(duration_ns=duration, seed=args.seed,
                  accuracy=args.accuracy, obs=obs)
    if args.workload == "pktgen":
        return run_pktgen(args.config, args.packet_bytes, **common)
    if args.workload in ("tcp_rx", "tcp_tx"):
        direction = args.workload[4:]
        return run_tcp_stream(args.config, args.message_bytes, direction,
                              **common)
    rtt = run_tcp_rr(args.config, "local", True, args.message_bytes,
                     **common)
    return {"avg_rtt_us": rtt / 1000}


def build_blame_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioctopus-repro obs blame",
        description="Run one experiment point with latency-blame "
                    "attribution and print the per-stage budget table")
    parser.add_argument("--workload", default="pktgen", choices=WORKLOADS)
    parser.add_argument("--config", default="remote",
                        choices=("local", "remote", "ioctopus"))
    parser.add_argument("--packet-bytes", type=int, default=256)
    parser.add_argument("--message-bytes", type=positive_int,
                        default=16384)
    parser.add_argument("--fidelity", default="quick",
                        choices=tuple(sorted(DURATIONS_MS)))
    parser.add_argument("--accuracy", default="exact",
                        choices=ACCURACY_MODES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--client-config", default="local",
                        choices=("local", "remote", "ioctopus"),
                        help="rr client-side configuration")
    parser.add_argument("--no-ddio", action="store_true",
                        help="rr: disable DDIO on the server")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw JSON report")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")
    return parser


def blame_main(argv: Optional[List[str]] = None) -> int:
    import json

    from repro.obs.blame import render_text, run_blame_point

    args = _parse_args(build_blame_parser(), argv)
    size = (args.packet_bytes if args.workload == "pktgen"
            else args.message_bytes)
    duration = DURATIONS_MS[args.fidelity] * 1_000_000
    report = run_blame_point(
        args.workload, args.config, size=size, duration_ns=duration,
        seed=args.seed, accuracy=args.accuracy,
        client_config=args.client_config, ddio=not args.no_ddio)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(report, indent=2, sort_keys=True)
                         + "\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    return 0 if report["conservation"]["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "blame":
        return blame_main(argv[1:])
    if argv and argv[0] == "diff":
        from repro.obs.diff import main as diff_main
        return diff_main(argv[1:])
    args = _parse_args(build_parser(), argv)
    obs = ObsSession(enabled=True, trace=bool(args.trace),
                     sample_interval_ns=args.sample_interval_us * 1000)
    profiler = cProfile.Profile() if args.profile else None
    if profiler is None:
        result = _run_point(args, obs)
    else:
        result = profiler.runcall(_run_point, args, obs)

    size = (args.packet_bytes if args.workload == "pktgen"
            else args.message_bytes)
    point = (f"{args.workload} {args.config} {size}B "
             f"{args.fidelity}/{args.accuracy}")
    print(f"point: {point}")
    for key, value in result.items():
        print(f"  {key}: {value:.4f}")
    print()
    print(obs.utilization_table(full=args.full))

    if profiler is not None:
        print()
        # 30 rows: on the default point the kernel's own functions rank
        # about 15th-20th by self time, behind the model's hot paths.
        pstats.Stats(profiler, stream=sys.stdout).sort_stats(
            pstats.SortKey.TIME).print_stats(30)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(obs.perfetto_json())
        records = len(obs.tracer.records) if obs.tracer else 0
        print(f"\nwrote {records} trace records to {args.trace} "
              "(open in ui.perfetto.dev)")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(obs.prometheus())
        print(f"wrote Prometheus dump to {args.prom}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: run any experiment and print its table.

Examples::

    ioctopus-repro --list
    ioctopus-repro fig08
    ioctopus-repro fig06 fig07 --fidelity quick
    ioctopus-repro --all --fidelity quick
    ioctopus-repro obs --workload rr --trace /tmp/rr.json
    ioctopus-repro ablate --figure fig08 --fidelity quick
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.base import (ACCURACY_MODES, all_experiment_names,
                                    configure_accuracy, get_experiment,
                                    resolve_accuracy)


def _int_at_least(text: str, floor: int) -> int:
    value = int(text)
    if value < floor:
        raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type for counts where 0 switches the feature off."""
    return _int_at_least(text, 0)


def positive_float(text: str) -> float:
    """argparse type for budgets that must be > 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def check_environment(parser: argparse.ArgumentParser,
                      accuracy: Optional[str],
                      jobs: Optional[int]) -> None:
    """Make a bad ``REPRO_ACCURACY`` or ``REPRO_SWEEP_JOBS`` a usage
    error (exit 2) before anything runs, not a traceback mid-run.

    A given ``--accuracy`` or ``--jobs`` wins over its variable, which
    is then not read.
    """
    from repro.experiments.sweep import current_jobs
    try:
        if accuracy is None:
            resolve_accuracy("exact")
        if jobs is None:
            current_jobs()
    except ValueError as exc:
        parser.error(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioctopus-repro",
        description="Reproduce the IOctopus (ASPLOS'20) evaluation on "
                    "the NUDMA simulator")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--fidelity", default="normal",
                        choices=("quick", "normal", "long"),
                        help="simulated duration per data point")
    parser.add_argument("--accuracy", default=None, choices=ACCURACY_MODES,
                        help="tier of the sweep points that take one "
                             "(fig06-fig09, fig11, fig12, sec24); every "
                             "other experiment, fig10 included, runs "
                             "exact at every tier.  exact: per-burst "
                             "simulation (bit-identical goldens); "
                             "adaptive: coalesce steady-state packet "
                             "trains and stop converged points early "
                             "(default: REPRO_ACCURACY if set, else "
                             "adaptive for --fidelity quick and exact "
                             "otherwise)")
    parser.add_argument("--report", action="store_true",
                        help="emit a markdown report (tables + claim "
                             "verdicts) instead of plain tables")
    parser.add_argument("--jobs", type=positive_int, default=None,
                        metavar="N",
                        help="run independent sweep points across N "
                             "worker processes (default: serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache finished sweep points in DIR, keyed "
                             "by code+parameter hash")
    parser.add_argument("--servers", type=positive_int, default=None,
                        metavar="N",
                        help="fleet experiments (fig16): servers behind "
                             "the load balancer (default 8)")
    parser.add_argument("--connections", type=positive_int, default=None,
                        metavar="N",
                        help="fleet experiments (fig16): fleet-wide "
                             "client connections (default 1048576)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        from repro.obs.cli import main as obs_main
        return obs_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import main as fuzz_main
        return fuzz_main(argv[1:])
    if argv and argv[0] == "ablate":
        from repro.experiments.ablate import main as ablate_main
        return ablate_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    registered = all_experiment_names()
    unknown = [name for name in args.experiments if name not in registered]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}; "
                     f"registered: {', '.join(registered)}")
    if args.jobs is not None or args.cache_dir is not None:
        from repro.experiments.sweep import configure
        configure(jobs=args.jobs, cache_dir=args.cache_dir)
    if args.accuracy is not None:
        configure_accuracy(args.accuracy)
    if args.servers is not None or args.connections is not None:
        from repro.experiments.fig16_fleet import configure_fleet
        configure_fleet(servers=args.servers,
                        connections=args.connections)
    if args.list:
        for name in registered:
            experiment = get_experiment(name)
            print(f"{name:8s} {experiment.paper_ref:30s} "
                  f"{experiment.description}")
        return 0
    names = registered if args.all else args.experiments
    if not names:
        print("nothing to run: pass experiment names, --all, or --list",
              file=sys.stderr)
        return 2
    check_environment(parser, args.accuracy, args.jobs)
    if args.report:
        from repro.analysis import run_report
        print(run_report(names=names, fidelity=args.fidelity))
        return 0
    for name in names:
        experiment = get_experiment(name)
        print(experiment.run(fidelity=args.fidelity).table())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

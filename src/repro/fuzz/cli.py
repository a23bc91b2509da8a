"""``ioctopus-repro fuzz``: the property-based fault/traffic fuzzer.

Examples::

    ioctopus-repro fuzz --seed 0 --cases 25
    ioctopus-repro fuzz --cases 100 --jobs 4 --time-budget 120
    ioctopus-repro fuzz --invariants conservation,replay --cases 10
    ioctopus-repro fuzz --mutate --cases 10 --corpus-dir /tmp/corpus
    ioctopus-repro fuzz --replay-corpus tests/corpus
    ioctopus-repro fuzz --list-invariants
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.cli import (non_negative_int, positive_float,
                                   positive_int)
from repro.experiments.sweep import configure
from repro.fuzz.invariants import (ALL_INVARIANTS, DEFAULT_INVARIANTS,
                                   validate_names)
from repro.fuzz.shrink import DEFAULT_BUDGET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioctopus-repro fuzz",
        description="Property-based fault/traffic fuzzing with "
                    "invariant checking and failing-case shrinking")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; every case derives from it "
                             "(default 0)")
    parser.add_argument("--cases", type=positive_int, default=25,
                        help="case budget (default 25)")
    parser.add_argument("--time-budget", type=positive_float, default=None,
                        metavar="SECONDS",
                        help="stop generating new chunks after this much "
                             "wall time")
    parser.add_argument("--invariants", default=None, metavar="A,B,C",
                        help="comma-separated invariant selection "
                             "(default: all standard ones)")
    parser.add_argument("--jobs", type=positive_int, default=None,
                        metavar="N",
                        help="run cases across N worker processes")
    parser.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="write shrunk minimal repros into DIR")
    parser.add_argument("--replay-corpus", default=None, metavar="DIR",
                        help="replay committed repros from DIR and "
                             "verify recorded violations + fingerprints")
    parser.add_argument("--fleet-every", type=non_negative_int,
                        default=None, metavar="N",
                        help="make every Nth case a rack-scale fleet "
                             "topology case (default 5; 0 disables)")
    parser.add_argument("--shrink-budget", type=non_negative_int,
                        default=DEFAULT_BUDGET, metavar="N",
                        help=f"max executions per shrink "
                             f"(default {DEFAULT_BUDGET})")
    parser.add_argument("--mutate", action="store_true",
                        help="mutation smoke test: add the deliberately "
                             "broken 'mutation_smoke' invariant to prove "
                             "the harness catches and shrinks")
    parser.add_argument("--list-invariants", action="store_true",
                        help="list invariant names and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    if args.list_invariants:
        for name in ALL_INVARIANTS:
            marker = "*" if name in DEFAULT_INVARIANTS else " "
            print(f" {marker} {name}")
        print(" (* = in the default selection)")
        return 0

    if args.jobs is not None:
        configure(jobs=args.jobs)

    if args.replay_corpus is not None:
        from repro.fuzz.corpus import load_corpus, replay_corpus
        entries = load_corpus(args.replay_corpus)  # [] when DIR is missing
        if not entries:
            parser.error(f"argument --replay-corpus: no .json corpus "
                         f"entries in {args.replay_corpus}")
        summary = replay_corpus(args.replay_corpus, entries)
        for replay in summary["replays"]:
            status = "ok" if replay["ok"] else "MISMATCH"
            print(f"[{status}] {replay['case_id']} ({replay['file']})")
            for mismatch in replay["mismatches"]:
                print(f"    {mismatch}")
        print(f"replayed {summary['total']} corpus entries, "
              f"{summary['failed']} mismatched")
        return 2 if summary["failed"] else 0

    invariants = None
    if args.invariants:
        invariants = [n.strip() for n in args.invariants.split(",")
                      if n.strip()]
        try:
            validate_names(invariants)
        except ValueError as error:
            parser.error(f"argument --invariants: {error}")
    if args.mutate:
        invariants = list(invariants or DEFAULT_INVARIANTS)
        if "mutation_smoke" not in invariants:
            invariants.append("mutation_smoke")

    from repro.fuzz.harness import FLEET_EVERY, fuzz
    fleet_every = (FLEET_EVERY if args.fleet_every is None
                   else args.fleet_every)
    summary = fuzz(master_seed=args.seed, cases=args.cases,
                   invariants=invariants, jobs=args.jobs,
                   time_budget_s=args.time_budget,
                   corpus_dir=args.corpus_dir,
                   shrink_budget=args.shrink_budget,
                   fleet_every=fleet_every,
                   log=print)

    print(f"\n{summary['cases_run']}/{summary['cases_requested']} cases "
          f"in {summary['elapsed_s']}s "
          f"({summary['crashed']} crashed legitimately), "
          f"{summary['failures']} invariant failures")
    for repro in summary["repros"]:
        case = repro["case"]
        print(f"  repro {case['case_id']}: {case['config']}/"
              f"{case['workload']} faults={len(case['faults'])} "
              f"violates {repro['violations']}")
        for detail in repro["details"]:
            print(f"    {detail}")
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fleet determinism smoke: run a small rack and verify the headline
claim — the merged fleet fingerprint is identical across repeats and
across ``--jobs`` values (process sharding is invisible).  Then run the
rack as one ``run_fleets`` batch beside an ioctopus pf-flap and a
server-down fleet, at ``--jobs``: the batch simulates each distinct
server once and hands shared shards to several fleets, and each batched
fleet must still merge to its fingerprint when run alone.

Usage::

    python tools/fleet_smoke.py                      # 2-server smoke
    python tools/fleet_smoke.py --servers 4 --jobs 4
    python tools/fleet_smoke.py --print-fingerprint  # golden-spec hash

``--print-fingerprint`` runs the pinned golden spec of
``tests/cluster/test_fleet.py`` and prints its fingerprint — the one
deliberate way to regenerate ``GOLDEN_FINGERPRINT`` after a behaviour
change.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.cluster import FleetSpec, run_fleet, run_fleets  # noqa: E402
from repro.experiments import sweep  # noqa: E402

#: Mirror of tests/cluster/test_fleet.py's pinned golden fleet.
GOLDEN_SPEC = dict(servers=4, connections=8192, duration_ns=4_000_000,
                   epochs=4)
GOLDEN_SEED = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=2)
    parser.add_argument("--connections", type=int, default=4096)
    parser.add_argument("--duration-ns", type=int, default=2_000_000)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2,
                        help="workers for the cross-process leg")
    parser.add_argument("--print-fingerprint", action="store_true",
                        help="print the golden spec's fleet fingerprint "
                             "and exit")
    args = parser.parse_args(argv)

    if args.print_fingerprint:
        fleet = run_fleet(FleetSpec(**GOLDEN_SPEC),
                          master_seed=GOLDEN_SEED, jobs=1)
        print(fleet.fingerprint())
        return 0

    spec = FleetSpec(servers=args.servers, connections=args.connections,
                     duration_ns=args.duration_ns, epochs=args.epochs)
    # fig16's scenarios: the pf-flap fleet shares every server but 0
    # with the baseline, the server-down fleet none.
    batch = {
        "baseline": spec,
        "pf-flap": FleetSpec(**dict(
            spec.to_dict(), pf_flap=(0, args.duration_ns // 3,
                                     args.duration_ns // 4))),
        "server-down": FleetSpec(**dict(
            spec.to_dict(), server_down=(0, args.duration_ns // 2))),
    }
    inline = run_fleet(spec, master_seed=args.seed, jobs=1)
    again = run_fleet(spec, master_seed=args.seed, jobs=1)
    alone = {"baseline": inline.fingerprint()}
    for name in ("pf-flap", "server-down"):
        alone[name] = run_fleet(batch[name], master_seed=args.seed,
                                jobs=1).fingerprint()
    try:
        sharded = run_fleet(spec, master_seed=args.seed, jobs=args.jobs)
        batched = run_fleets(list(batch.values()), master_seed=args.seed,
                             jobs=args.jobs)
    finally:
        sweep.shutdown_pool()

    summary = inline.summary()
    print(f"fleet {spec.servers} servers x {spec.connections} conns: "
          f"served {summary['served']}, lost {summary['lost']}, "
          f"p99 {summary.get('p99_ns', 0) / 1000:.1f}us")
    print(f"  inline fingerprint  {inline.fingerprint()}")
    print(f"  repeat fingerprint  {again.fingerprint()}")
    print(f"  jobs={args.jobs} fingerprint  {sharded.fingerprint()}")
    mismatched = [name for name, fleet in zip(batch, batched)
                  if fleet.fingerprint() != alone[name]]
    for name, fleet in zip(batch, batched):
        verdict = "differs from" if name in mismatched else "matches"
        print(f"  batch jobs={args.jobs} {name:<12} {verdict} its run "
              f"alone ({fleet.fingerprint()[:16]})")

    ok = (inline.fingerprint() == again.fingerprint()
          == sharded.fingerprint())
    conserved = summary["planned"] == summary["served"] + summary["lost"]
    if not ok:
        print("FAIL: fleet fingerprint is not deterministic",
              file=sys.stderr)
    if not conserved:
        print("FAIL: planned != served + lost", file=sys.stderr)
    if mismatched:
        print(f"FAIL: batched fleets differ from their runs alone: "
              f"{', '.join(mismatched)}", file=sys.stderr)
    if ok and conserved and not mismatched:
        print("fleet smoke OK: deterministic across repeats and jobs, "
              "and batched fleets match their runs alone")
    return 0 if ok and conserved and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())

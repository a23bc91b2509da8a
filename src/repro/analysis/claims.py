"""The paper's qualitative claims, encoded as checkable predicates.

Each claim inspects one experiment's :class:`ExperimentResult` and
returns a :class:`ClaimCheck`; ``verify_result`` evaluates every claim
registered for that experiment.  This is the machine-readable version of
``EXPERIMENTS.md``: the *shape* of each figure — who wins, by roughly
what factor, where the crossovers fall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.base import ExperimentResult


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of checking one claim against measured rows."""

    experiment: str
    claim: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.experiment}: {self.claim}{tail}"


Predicate = Callable[[ExperimentResult], ClaimCheck]
_CLAIMS: Dict[str, List[Predicate]] = {}


def claim(experiment: str, text: str):
    """Decorator registering a predicate for an experiment.

    The wrapped function receives the result and returns (passed, detail).
    """

    def wrap(fn):
        def predicate(result: ExperimentResult) -> ClaimCheck:
            passed, detail = fn(result)
            return ClaimCheck(experiment, text, passed, detail)

        _CLAIMS.setdefault(experiment, []).append(predicate)
        return fn

    return wrap


def claims_for(experiment: str) -> List[Predicate]:
    return list(_CLAIMS.get(experiment, []))


def verify_result(result: ExperimentResult) -> List[ClaimCheck]:
    """Check every registered claim against an already-run result."""
    return [predicate(result) for predicate in claims_for(result.experiment)]


# ---------------------------------------------------------------------------
# The claims themselves (paper section in each text).
# ---------------------------------------------------------------------------

@claim("fig06", "Rx: ioct/local beats remote at every size, gap grows "
                "(§5.1.1)")
def _fig06_gap(result):
    ratios = result.column("ratio_local_over_remote")
    ok = all(r > 1.0 for r in ratios) and ratios[-1] > ratios[0]
    return ok, f"ratios {ratios[0]}..{ratios[-1]}"


@claim("fig06", "Rx: remote memory bandwidth ~3x its throughput (§5.1.1)")
def _fig06_membw(result):
    row = result.as_dicts()[-1]
    factor = row["remote_membw_gbps"] / max(row["remote_gbps"], 1e-9)
    return 2.3 <= factor <= 3.8, f"{factor:.2f}x"


@claim("fig06", "Rx: ioctopus is indistinguishable from local (§5.3)")
def _fig06_ioct(result):
    deltas = [abs(r["ioct_gbps"] - r["local_gbps"])
              / max(r["local_gbps"], 1e-9) for r in result.as_dicts()]
    return max(deltas) < 0.03, f"max delta {max(deltas):.1%}"


@claim("fig07", "Tx: placements obtain comparable throughput (§5.1.1)")
def _fig07_tie(result):
    ratios = result.column("ratio_local_over_remote")
    return all(0.93 <= r <= 1.10 for r in ratios), f"max {max(ratios)}"


@claim("fig07", "Tx: remote membw equals its throughput (§5.1.1)")
def _fig07_probe(result):
    factor = result.as_dicts()[-1]["remote_membw_over_tput"]
    return 0.85 <= factor <= 1.25, f"{factor:.2f}x"


@claim("fig08", "pktgen: ~4.1 vs ~3.08 Mpps, one 80 ns miss/packet "
                "(§5.1.1)")
def _fig08_rates(result):
    rows = result.as_dicts()
    ok = all(3.9 <= r["ioct_mpps"] <= 4.3
             and 2.85 <= r["remote_mpps"] <= 3.25 for r in rows)
    return ok, (f"{rows[0]['ioct_mpps']} / {rows[0]['remote_mpps']} Mpps")


@claim("fig09", "RR: ll < llnd < rr at every message size (§5.1.2)")
def _fig09_order(result):
    ok = all(1.0 <= r["llnd_over_ll"] < r["rr_over_ll"] <= 1.35
             for r in result.as_dicts())
    return ok, ""


@claim("fig10", "memcached: advantage grows with SET ratio (§5.1.3)")
def _fig10_sets(result):
    ratios = result.column("ratio")
    return ratios[-1] > ratios[0] and ratios[-1] >= 1.08, \
        f"{ratios[0]} -> {ratios[-1]}"


@claim("fig11", "congestion: the local/remote gap widens with STREAM "
                "pairs (§5.2)")
def _fig11_gap(result):
    ratios = result.column("ratio")
    return max(ratios) >= 1.6 and ratios[-1] > ratios[0], \
        f"peak {max(ratios)}x"


@claim("fig12", "latency: ioct flat, remote grows with congestion (§5.2)")
def _fig12_flat(result):
    ioct = result.column("ioct_us")
    remote = result.column("remote_us")
    ok = (max(ioct) - min(ioct) < 0.3
          and remote[-1] > remote[0] * 1.08)
    return ok, f"remote {remote[0]} -> {remote[-1]} us"


@claim("fig13", "co-location: remote I/O placement slows PageRank (§5.2)")
def _fig13_victim(result):
    slowdowns = result.column("pr_slowdown_remote")
    return all(s > 1.01 for s in slowdowns), f"{slowdowns}"


@claim("fig14", "migration: octoNIC re-steers at full rate; standard NIC "
                "drops to remote level (§5.3)")
def _fig14_steer(result):
    rows = result.as_dicts()
    octo = [r for r in rows if r["config"] == "octoNIC"]
    std = [r for r in rows if r["config"] == "ethNIC"]
    ok = (octo[-1]["pf1_gbps"] > 0.9 * octo[0]["pf0_gbps"]
          and std[-1]["pf1_gbps"] == 0
          and std[-1]["pf0_gbps"] < 0.9 * std[0]["pf0_gbps"])
    return ok, ""


@claim("fig15", "NVMe: remote fio degrades ~20-25% then flattens (§5.4)")
def _fig15_fio(result):
    norm = result.column("fio_normalized")
    return 0.70 <= min(norm) <= 0.85 and norm[0] == 1.0, \
        f"floor {min(norm)}"


@claim("sec24", "remote DDIO yields at most a marginal improvement (§2.4)")
def _sec24_marginal(result):
    improvement = result.as_dicts()[1]["vs_default_remote"]
    return 0.95 <= improvement <= 1.05, f"{improvement}x"


@claim("sec511", "multi-core: line rate via both PFs; memory traffic "
                 "reappears for ioct (§5.1.1)")
def _sec511_multicore(result):
    rows = {r["config"]: r for r in result.as_dicts()}
    ok = (rows["ioctopus"]["total_gbps"] > 85
          and rows["ioctopus"]["membw_gbps"] > 10)
    return ok, f"{rows['ioctopus']['total_gbps']} Gb/s"

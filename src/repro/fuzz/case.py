"""Fuzz-case generation: one seed expands to a whole test case.

A :class:`FuzzCase` is the unit the harness runs: a topology variant
(the paper's ``local``/``remote``/``ioctopus`` configurations), one
workload mix (NIC traffic, NVMe traffic, or both colocated), a simulated
duration, and a fault plan of possibly-overlapping transient faults,
each tagged with the device it targets (``nic`` or ``ssd``).

Generation is a pure function of ``(master_seed, index)``: every draw
comes from a named :class:`~repro.sim.rng.SimRandom` child stream, so
the same seed always regenerates byte-identical cases — which is what
makes a recorded corpus entry replayable with nothing but its numbers.

The grammar (what a generated case can contain):

* ``config``    — ``local`` | ``remote`` | ``ioctopus``
* ``workload``  — ``pktgen`` | ``tcp_stream`` | ``tcp_rr`` |
  ``memcached`` | ``fio`` | ``colocated`` (TCP_STREAM rx + fio on one
  server, the §5.4-style NIC+NVMe colocation)
* ``duration``  — one of :data:`DURATIONS_NS`
* ``faults``    — 0..:data:`MAX_FAULTS` transient faults drawn from
  :data:`NIC_FAULT_KINDS` / :data:`SSD_FAULT_KINDS`, injected anywhere
  in the first 80% of the run so recoveries land inside the horizon.
* ``components``— random *off* toggles of fault-safe registry
  components (:mod:`repro.components`), drawn from their own
  ``components-{index}`` child stream so every pre-existing corpus
  entry regenerates byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.components import fault_safe_component_names
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.rng import SimRandom
from repro.units import KB

#: Workload mixes the harness knows how to build.
WORKLOADS = ("pktgen", "tcp_stream", "tcp_rr", "memcached", "fio",
             "colocated")

#: Topology variants (the paper's evaluated configurations).
CONFIGS = ("local", "remote", "ioctopus")

#: Simulated durations a case may run for.
DURATIONS_NS = (1_000_000, 2_000_000, 4_000_000)

#: Most faults one generated case may carry (overlap is the point).
MAX_FAULTS = 3

#: Fault kinds available per target device.
NIC_FAULT_KINDS = ("pf_down", "pcie_link_down", "pcie_degrade",
                   "wire_loss", "qpi_throttle")
SSD_FAULT_KINDS = ("pf_down", "pcie_link_down", "pcie_degrade")

#: Per-component chance that a generated case switches one of the
#: fault-safe registry components off.
COMPONENT_OFF_PROBABILITY = 0.15

# ---- fleet-case grammar (rack-scale topology cases) -------------------
#: Workload name of a fleet case.  Deliberately *not* in
#: :data:`WORKLOADS`: that tuple feeds ``rng.choice`` in
#: :func:`generate_case`, and committed corpus entries pin its stream.
FLEET_WORKLOAD = "fleet"

#: Rack sizes / fleet-wide connection counts the fleet fuzzer explores
#: (small: a fleet case simulates every server, twice for replay).
FLEET_SERVERS = (2, 3, 4)
FLEET_CONNECTIONS = (1024, 2048, 4096)
FLEET_DURATIONS_NS = (2_000_000, 4_000_000)

#: Failure scenarios the LB grammar can draw: nothing, a whole-server
#: death, or a serving-PF flap (survivable under ioctopus only).
FLEET_SCENARIOS = ("none", "server_down", "pf_flap")


@dataclass
class FuzzCase:
    """One generated case; a plain value object, JSON round-trippable."""

    case_id: str
    seed: int
    config: str
    workload: str
    params: Dict
    duration_ns: int
    #: Fault dicts: FaultSpec fields plus a ``target`` ("nic" | "ssd").
    faults: List[Dict] = field(default_factory=list)
    #: Registry components this case switches *off* (name -> False).
    #: Restricted to the fault-safe subset: the invariant catalogue's
    #: expectations (no-reorder, survivable PF faults) assume the
    #: unsafe components stay at their defaults.
    components: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if self.config not in CONFIGS:
            raise ValueError(f"config must be one of {CONFIGS}, "
                             f"got {self.config!r}")
        if self.workload not in WORKLOADS + (FLEET_WORKLOAD,):
            raise ValueError(f"workload must be one of "
                             f"{WORKLOADS + (FLEET_WORKLOAD,)}, "
                             f"got {self.workload!r}")
        if self.duration_ns < 100_000:
            raise ValueError(f"duration_ns too short: {self.duration_ns}")
        safe = set(fault_safe_component_names())
        for name, enabled in self.components.items():
            if name not in safe:
                raise ValueError(f"component toggle {name!r} is not "
                                 f"fault-safe; allowed: {sorted(safe)}")
            if enabled is not False:
                raise ValueError(f"component toggles are off-only, got "
                                 f"{name}={enabled!r}")
        if self.workload == FLEET_WORKLOAD:
            self._validate_fleet()
            return
        for fault in self.faults:
            if fault.get("target") not in ("nic", "ssd"):
                raise ValueError(f"fault needs target nic|ssd: {fault}")
            # Constructing the spec runs the full kind-specific
            # validation, so a malformed corpus entry fails loudly here.
            self._spec_of(fault)

    def _validate_fleet(self) -> None:
        """Fleet cases carry a whole FleetSpec in ``params`` and their
        failure scenario inside it — never device-level faults."""
        # Local import: the fleet grammar must not drag the cluster
        # package (and the simulator core behind it) into every
        # corpus-level use of this module.
        from repro.cluster.spec import FleetSpec
        if self.faults:
            raise ValueError("fleet cases carry their failure scenario "
                             "in params (server_down / pf_flap), not in "
                             "the device fault list")
        if self.components:
            raise ValueError("fleet cases do not carry component "
                             "toggles (the fleet runner builds stock "
                             "testbeds)")
        spec = FleetSpec.from_dict(self.params)
        if spec.duration_ns != self.duration_ns:
            raise ValueError(
                f"fleet case duration {self.duration_ns} != spec "
                f"duration {spec.duration_ns}")
        if spec.config != self.config:
            raise ValueError(f"fleet case config {self.config!r} != "
                             f"spec config {spec.config!r}")

    # ----------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        data = {
            "case_id": self.case_id,
            "seed": self.seed,
            "config": self.config,
            "workload": self.workload,
            "params": dict(self.params),
            "duration_ns": self.duration_ns,
            "faults": [dict(f) for f in self.faults],
        }
        # Omitted when empty so pre-component corpus files round-trip
        # byte-identically.
        if self.components:
            data["components"] = dict(self.components)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzCase":
        return cls(case_id=data["case_id"], seed=data["seed"],
                   config=data["config"], workload=data["workload"],
                   params=dict(data["params"]),
                   duration_ns=data["duration_ns"],
                   faults=[dict(f) for f in data.get("faults", [])],
                   components=dict(data.get("components", {})))

    # ----------------------------------------------------------- queries

    @property
    def has_nvme(self) -> bool:
        return self.workload in ("fio", "colocated")

    @property
    def has_nic_traffic(self) -> bool:
        return self.workload != "fio"

    @staticmethod
    def _spec_of(fault: Dict) -> FaultSpec:
        return FaultSpec(**{k: v for k, v in fault.items()
                            if k != "target"})

    def fault_plan(self, target: str) -> FaultPlan:
        """The case's faults against one device as a runnable plan."""
        return FaultPlan([self._spec_of(f) for f in self.faults
                          if f["target"] == target])

    def fault_kinds(self) -> List[str]:
        return sorted({f["kind"] for f in self.faults})

    def describe(self) -> str:
        faults = "; ".join(
            f"{f['target']}:{self._spec_of(f).describe()}"
            for f in self.faults) or "no faults"
        off = "".join(f" -{name}" for name in sorted(self.components))
        return (f"{self.case_id}: {self.config}/{self.workload} "
                f"{self.duration_ns}ns [{faults}]{off}")


# ------------------------------------------------------------- generation

def _workload_params(rng: SimRandom, workload: str) -> Dict:
    if workload == "pktgen":
        return {"packet_bytes": rng.choice([64, 256, 1024])}
    if workload == "tcp_stream":
        return {"message_bytes": rng.choice([256, 4 * KB, 16 * KB]),
                "direction": rng.choice(["rx", "tx"])}
    if workload == "tcp_rr":
        return {"message_bytes": rng.choice([64, 256, 1024])}
    if workload == "memcached":
        return {"value_bytes": rng.choice([1 * KB, 4 * KB]),
                "set_fraction": rng.choice([0.1, 0.5]),
                "workers": rng.choice([1, 2])}
    if workload == "fio":
        return {"block_bytes": rng.choice([32 * KB, 128 * KB]),
                "iodepth": rng.choice([8, 32]),
                "threads": rng.choice([1, 2])}
    # colocated: one TCP_STREAM rx flow plus one fio thread.
    return {"message_bytes": rng.choice([4 * KB, 16 * KB]),
            "block_bytes": rng.choice([32 * KB, 128 * KB]),
            "iodepth": 8}


def _random_fault(rng: SimRandom, case_duration_ns: int, has_nvme: bool,
                  config: str) -> Dict:
    target = "ssd" if has_nvme and rng.random() < 0.4 else "nic"
    kinds = NIC_FAULT_KINDS if target == "nic" else SSD_FAULT_KINDS
    kind = rng.choice(list(kinds))
    at_ns = rng.randint(0, int(case_duration_ns * 0.8))
    duration = max(1, min(int(rng.expovariate(6.0 / case_duration_ns)),
                          case_duration_ns))
    # PF counts: server NIC is always bifurcated into 2 PFs; the SSD is
    # dual-ported only under the ioctopus configuration.
    num_pfs = 2 if (target == "nic" or config == "ioctopus") else 1
    fault: Dict = {"target": target, "kind": kind, "at_ns": at_ns,
                   "duration_ns": duration}
    if kind in ("pf_down", "pcie_link_down"):
        fault["pf_id"] = rng.randint(0, num_pfs - 1)
    elif kind == "pcie_degrade":
        fault["pf_id"] = rng.randint(0, num_pfs - 1)
        fault["lanes"] = rng.choice([1, 2, 4])
    elif kind == "wire_loss":
        fault["loss_probability"] = round(rng.uniform(0.001, 0.05), 6)
        fault["corrupt_probability"] = round(rng.uniform(0.0, 0.01), 6)
    else:  # qpi_throttle
        fault["src_node"] = rng.randint(0, 1)
        fault["dst_node"] = 1 - fault["src_node"]
        fault["throttle_factor"] = round(rng.uniform(0.1, 0.9), 6)
    return fault


def generate_case(master_seed: int, index: int) -> FuzzCase:
    """Expand ``(master_seed, index)`` into one case, reproducibly.

    Each case draws from its own child stream, so inserting or removing
    cases never perturbs the others — corpus entries stay replayable.
    """
    rng = SimRandom(master_seed, name="fuzz").child(f"case-{index}")
    config = rng.choice(list(CONFIGS))
    workload = rng.choice(list(WORKLOADS))
    duration_ns = rng.choice(list(DURATIONS_NS))
    params = _workload_params(rng, workload)
    has_nvme = workload in ("fio", "colocated")
    nfaults = rng.randint(0, MAX_FAULTS)
    faults = [_random_fault(rng, duration_ns, has_nvme, config)
              for _ in range(nfaults)]
    # Component off-toggles draw from their own child stream — disjoint
    # from ``case-{index}`` above — so the core draws (and with them
    # every committed corpus entry) stay byte-identical.
    crng = SimRandom(master_seed, name="fuzz").child(f"components-{index}")
    components = {name: False for name in fault_safe_component_names()
                  if crng.random() < COMPONENT_OFF_PROBABILITY}
    return FuzzCase(case_id=f"s{master_seed}-c{index}",
                    seed=master_seed * 1_000_003 + index,
                    config=config, workload=workload, params=params,
                    duration_ns=duration_ns, faults=faults,
                    components=components)


def generate_fleet_case(master_seed: int, index: int) -> FuzzCase:
    """Expand ``(master_seed, index)`` into one *fleet* topology case.

    Fleet cases draw from their own ``fleet-{index}`` child stream —
    disjoint from the ``case-{index}`` streams of :func:`generate_case`
    — so interleaving them into a campaign never perturbs the regular
    cases, and committed corpus entries stay byte-identical.
    """
    from repro.cluster.spec import FleetSpec
    rng = SimRandom(master_seed, name="fuzz").child(f"fleet-{index}")
    servers = rng.choice(list(FLEET_SERVERS))
    duration_ns = rng.choice(list(FLEET_DURATIONS_NS))
    spec = {
        "servers": servers,
        "connections": rng.choice(list(FLEET_CONNECTIONS)),
        "config": rng.choice(list(CONFIGS)),
        "duration_ns": duration_ns,
        "epochs": rng.choice([2, 4]),
        "workers": rng.choice([1, 2]),
        "conn_rate_tps": rng.choice([2.0, 8.0]),
        "zipf_s": rng.choice([0.0, 1.1]),
        "slow_fraction": rng.choice([0.0, 0.05]),
        "incast_per_epoch": rng.choice([0, 1]),
        "incast_fanin": rng.choice([16, 64]),
    }
    scenario = rng.choice(list(FLEET_SCENARIOS))
    victim = rng.randint(0, servers - 1)
    # Strike inside the middle of the run so the LB's epoch-quantized
    # reaction and the post-death epochs both land inside the horizon.
    at_ns = rng.randint(duration_ns // 4, (duration_ns * 3) // 4)
    if scenario == "server_down":
        spec["server_down"] = [victim, at_ns]
    elif scenario == "pf_flap":
        spec["pf_flap"] = [victim, at_ns, max(1, duration_ns // 4)]
    # Round-trip through FleetSpec: validates the draw and normalizes
    # the params dict to the full field set.
    params = FleetSpec.from_dict(spec).to_dict()
    return FuzzCase(case_id=f"s{master_seed}-f{index}",
                    seed=master_seed * 1_000_003 + index,
                    config=params["config"], workload=FLEET_WORKLOAD,
                    params=params, duration_ns=duration_ns, faults=[])

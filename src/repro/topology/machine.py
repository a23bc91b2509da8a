"""Machine topology: nodes, cores, and the composed hardware substrate.

A :class:`Machine` owns the simulation environment plus every hardware
component: per-node LLC and DRAM controller, the socket interconnect, and
the :class:`~repro.memory.system.MemorySystem` router.  I/O devices attach
to it through the PCIe fabric (``repro.pcie``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.interconnect.link import Interconnect
from repro.memory.dram import DramController
from repro.memory.llc import LastLevelCache
from repro.memory.region import Region
from repro.memory.system import MemorySystem
from repro.sim.engine import Environment
from repro.sim.rng import SimRandom
from repro.sim.tracing import Tracer
from repro.topology.constants import MachineSpec


class Core:
    """One CPU core with busy-time accounting."""

    def __init__(self, env: Environment, core_id: int, node_id: int):
        self.env = env
        self.core_id = core_id
        self.node_id = node_id
        self._busy_ns = 0

    def charge(self, ns: int) -> int:
        """Account ``ns`` of busy time; returns ns for yield convenience."""
        if ns < 0:
            raise ValueError(f"negative CPU charge {ns}")
        self._busy_ns += ns
        return ns

    @property
    def busy_ns(self) -> int:
        return self._busy_ns

    def __repr__(self) -> str:
        return f"<Core {self.core_id} node={self.node_id}>"


class Node:
    """A NUMA node: cores + LLC + local DRAM."""

    def __init__(self, node_id: int, cores: List[Core],
                 llc: LastLevelCache, dram: DramController):
        self.node_id = node_id
        self.cores = cores
        self.llc = llc
        self.dram = dram

    def __repr__(self) -> str:
        return f"<Node {self.node_id} cores={len(self.cores)}>"


class Machine:
    """The composed server."""

    def __init__(self, spec: MachineSpec, seed: int = 0,
                 env: Optional[Environment] = None):
        self.spec = spec
        # Client/server experiments share one Environment across machines.
        self.env = env if env is not None else Environment()
        self.rng = SimRandom(seed, name=spec.name)
        self.tracer = Tracer(enabled=False)

        self.interconnect = Interconnect(
            self.env, spec.num_nodes,
            spec.interconnect.bytes_per_sec_per_direction,
            spec.interconnect.crossing_latency_ns,
            spec.interconnect.max_latency_inflation)

        self.nodes: List[Node] = []
        self.cores: List[Core] = []
        llcs, drams = [], []
        for node_id in range(spec.num_nodes):
            llc = LastLevelCache(node_id, spec.cpu.llc_bytes,
                                 spec.cpu.ddio_llc_fraction)
            dram = DramController(self.env, node_id,
                                  spec.memory.bytes_per_sec,
                                  spec.memory.miss_latency_ns)
            cores = [Core(self.env, node_id * spec.cpu.cores + i, node_id)
                     for i in range(spec.cpu.cores)]
            self.nodes.append(Node(node_id, cores, llc, dram))
            self.cores.extend(cores)
            llcs.append(llc)
            drams.append(dram)

        self.memory = MemorySystem(self.env, spec, llcs, drams,
                                   self.interconnect)

    # ------------------------------------------------------------ helpers

    @property
    def now(self) -> int:
        return self.env.now

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def node_of_core(self, core_id: int) -> int:
        return self.cores[core_id].node_id

    def cores_on_node(self, node_id: int) -> List[Core]:
        return self.nodes[node_id].cores

    def alloc_region(self, name: str, node: int, size: int,
                     non_temporal: bool = False) -> Region:
        """Allocate a region homed on ``node`` (the NUMA-local policy the
        kernel applies to ring/packet buffers, §2.3)."""
        if not 0 <= node < self.spec.num_nodes:
            raise ValueError(f"node {node} out of range for "
                             f"{self.spec.num_nodes}-node machine")
        return Region(name=name, home_node=node, size=size,
                      non_temporal=non_temporal)

    def __repr__(self) -> str:
        return (f"<Machine {self.spec.name} nodes={self.spec.num_nodes} "
                f"cores={len(self.cores)} t={self.env.now}ns>")

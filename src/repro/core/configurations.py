"""The paper's evaluated configurations as a ready-to-run testbed (§5).

A :class:`Testbed` builds two machines sharing one simulation clock — the
*server* (whose NIC is bifurcated across both sockets, like the ConnectX-5
Socket Direct card) and the *client* (single-PF NIC, always local) — wired
back-to-back at 100 Gb/s.

The system under test is a :class:`~repro.components.SystemConfig`: a
server-arrangement *preset* plus explicit component overrides against
the registry defaults (:mod:`repro.components`).  The preset selects:

* ``"local"``    — standard firmware; workload runs on the NIC-local node.
* ``"remote"``   — standard firmware; workload runs on the other node, so
  every DMA crosses the interconnect (the NUDMA configuration).
* ``"ioctopus"`` — octoNIC firmware + team driver; the workload runs on
  the *remote* node placement-wise, but the octoNIC steers through the PF
  local to wherever the workload is — by design it must match ``local``.

Each host is assembled by :class:`TestbedBuilder`, which the ablation
experiments also use directly for single-host builds (different wiring,
4-socket machines) instead of hand-rolling Machine/NIC/driver stacks.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.components import SystemConfig, all_components, as_system_config
from repro.core.teaming import OctoTeamDriver
from repro.nic.device import NicDevice
from repro.nic.firmware import OctoFirmware, StandardFirmware
from repro.nic.wire import EthernetWire
from repro.nvme.device import NvmeController
from repro.nvme.driver import NvmeDriver
from repro.os_model.driver import NetDriver, StandardDriver
from repro.os_model.netstack import NetworkStack
from repro.os_model.scheduler import Scheduler
from repro.pcie.fabric import bifurcate
from repro.sim.engine import Environment
from repro.topology.constants import MachineSpec, dell_r730_spec
from repro.topology.machine import Machine

#: Where a testbed's client may run its workload: its single-PF NIC
#: sits on node 0, so ``"remote"`` puts the client's DMA across its
#: interconnect.
CLIENT_CONFIGS = ("local", "remote")

#: The node the server NIC's PF0 attaches to.
NIC_NODE = 0
#: The node "remote" workloads run on.
FAR_NODE = 1
#: PCIe lanes of the server NIC (x16), split across its PFs.
NIC_LANES = 16


class Host:
    """One machine plus its OS services and NIC."""

    def __init__(self, machine: Machine, nic: NicDevice, driver: NetDriver):
        self.machine = machine
        self.nic = nic
        self.driver = driver
        self.scheduler = Scheduler(machine)
        self.stack = NetworkStack(machine, self.scheduler)
        #: Wiring metadata, set by the builder ("bifurcation"/"switch",
        #: lane count, switch ASIC power) — the §3.2 cost ablation reads
        #: these instead of re-deriving them.
        self.wiring = "bifurcation"
        self.wiring_lanes = 0
        self.wiring_power_w = 0.0


def apply_components(system: SystemConfig, hosts: List[Host],
                     env: Environment) -> None:
    """Thread every registered component's effective state through the
    freshly-built ``hosts``.  Runs at build time (flags only, no
    events), so the default config is bit-identical to a build that
    never consulted the registry."""
    states = system.components()
    for component in all_components():
        if states[component.name]:
            component.apply(hosts, env)
        else:
            component.remove(hosts, env)


class TestbedBuilder:
    """Composable assembly of one host from a SystemConfig.

    The one place Machine + PFs + firmware + driver + Host come
    together; the :class:`Testbed` constructor and the ablation
    experiments (different wiring, 4-socket machines, single-host
    benches) are all thin calls into it::

        host = (TestbedBuilder("ioctopus").spec(spec4)
                .attach_nodes([0, 1, 2, 3]).pf_name("o4")
                .build_host())
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, system: Union[str, SystemConfig] = "ioctopus"):
        self._system = as_system_config(system)
        self._spec: Optional[MachineSpec] = None
        self._wiring = "bifurcation"
        self._attach_nodes: Optional[List[int]] = None
        self._pf_name: Optional[str] = None
        self._nic_name: Optional[str] = None

    # ------------------------------------------------------ fluent knobs

    def spec(self, spec: Optional[MachineSpec]) -> "TestbedBuilder":
        self._spec = spec
        return self

    def wiring(self, wiring: str) -> "TestbedBuilder":
        """``"bifurcation"`` (passive riser, the paper's prototype) or
        ``"switch"`` (programmable PCIe switch, §3.2)."""
        if wiring not in ("bifurcation", "switch"):
            raise ValueError("wiring must be 'bifurcation' or 'switch'")
        self._wiring = wiring
        return self

    def attach_nodes(self, nodes: List[int]) -> "TestbedBuilder":
        """Nodes the NIC exposes a PF on (default: every node for the
        octo preset, nodes 0+1 for the standard presets)."""
        self._attach_nodes = list(nodes)
        return self

    def pf_name(self, name: str) -> "TestbedBuilder":
        self._pf_name = name
        return self

    def nic_name(self, name: str) -> "TestbedBuilder":
        self._nic_name = name
        return self

    # ----------------------------------------------------------- assembly

    def _resolved_spec(self) -> MachineSpec:
        return self._spec or dell_r730_spec()

    def _resolved_attach(self, spec: MachineSpec) -> List[int]:
        if self._attach_nodes is not None:
            return list(self._attach_nodes)
        if self._system.preset == "ioctopus":
            return list(range(spec.num_nodes))
        return list(range(min(2, spec.num_nodes)))

    def _assemble_host(self, machine: Machine, wire, wire_side: str) -> Host:
        """One machine + NIC + driver per the preset; no components yet
        (the caller applies them once every host of the build exists)."""
        octo = self._system.preset == "ioctopus"
        spec = machine.spec
        attach = self._resolved_attach(spec)
        pf_name = self._pf_name if self._pf_name is not None else "srv"
        wiring_power = 0.0
        if self._wiring == "switch":
            from repro.pcie.switch import PcieSwitch
            switch = PcieSwitch(machine)
            pfs = switch.attach_per_node(NIC_LANES // spec.num_nodes,
                                         name=pf_name)
            wiring_lanes = switch.lanes_required()
            wiring_power = switch.power_watts
        else:
            pfs = bifurcate(machine, NIC_LANES, attach, name=pf_name)
            wiring_lanes = NIC_LANES
        nic_kwargs = {}
        if self._nic_name is not None:
            nic_kwargs["name"] = self._nic_name
        if octo:
            firmware = OctoFirmware(num_pfs=len(pfs))
            nic = NicDevice(machine, pfs, firmware, wire=wire,
                            wire_side=wire_side, **nic_kwargs)
            driver: NetDriver = OctoTeamDriver(machine, nic)
        else:
            firmware = StandardFirmware(num_pfs=len(pfs))
            nic = NicDevice(machine, pfs, firmware, wire=wire,
                            wire_side=wire_side, **nic_kwargs)
            # Both `local` and `remote` use the PF0 netdev; what differs
            # is where the workload runs (§5, "Evaluated configurations").
            driver = StandardDriver(machine, nic, pf_id=0)
        host = Host(machine, nic, driver)
        host.wiring = self._wiring
        host.wiring_lanes = wiring_lanes
        host.wiring_power_w = wiring_power
        return host

    def build_host(self, env: Optional[Environment] = None,
                   wire=None, wire_side: str = "b") -> Host:
        """A single server host (no client, no testbed) — what the
        wiring/scale ablations assemble per arrangement.  Components are
        applied to this host alone."""
        env = env or Environment()
        machine = Machine(self._resolved_spec(), seed=0, env=env)
        host = self._assemble_host(machine, wire, wire_side)
        apply_components(self._system, [host], env)
        return host


#: PCIe lanes per SSD port.
SSD_LANES_PER_PORT = 8


def attach_octossd(machine: Machine, octo: bool,
                   name: str) -> NvmeController:
    """One NVMe controller wired per the arrangement under test: a
    single-port drive on node 0, or (``octo=True``) a dual-port octoSSD
    with one PF per socket — the storage twin of the NIC bifurcation.
    Shared by the mixed-IO ablation and the fuzz runner."""
    attach = [0, 1] if octo else [0]
    return NvmeController(
        machine, bifurcate(machine, SSD_LANES_PER_PORT * len(attach),
                           attach, name=name), name=name)


def attach_octossd_fleet(machine: Machine, octo: bool,
                         count: int) -> List[NvmeDriver]:
    """``count`` SSDs plus their drivers (octo teaming per ``octo``)."""
    ssds = [attach_octossd(machine, octo, name=f"ssd{i}")
            for i in range(count)]
    return [NvmeDriver(machine, ssd, octo_mode=octo) for ssd in ssds]


class Testbed:
    """Server + client wired back-to-back, per the paper's §5 setup."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, config: Union[str, SystemConfig], seed: int = 0,
                 spec: Optional[MachineSpec] = None,
                 client_config: str = "local"):
        """``config`` is the system under test: a preset name or a
        :class:`~repro.components.SystemConfig`."""
        system = as_system_config(config)
        if client_config not in CLIENT_CONFIGS:
            raise ValueError(f"client_config must be one of "
                             f"{CLIENT_CONFIGS}, got {client_config!r}")
        self.system = system
        self.config = system.preset
        self.client_config = client_config
        self.env = Environment()
        self.wire = EthernetWire(self.env)

        # --- server: bifurcated x16 NIC, one x8 PF per socket (§4.1).
        builder = (TestbedBuilder(system).spec(spec).pf_name("srv")
                   .nic_name("octoNIC" if system.preset == "ioctopus"
                             else "ethNIC"))
        server = Machine(builder._resolved_spec(), seed=seed, env=self.env)
        self.server = builder._assemble_host(server, self.wire, "b")

        # --- client: plain single-PF x16 NIC on node 0.
        client_builder = (TestbedBuilder("local").spec(spec)
                          .attach_nodes([0]).pf_name("cli")
                          .nic_name("cliNIC"))
        client = Machine(client_builder._resolved_spec(), seed=seed + 1,
                         env=self.env)
        self.client = client_builder._assemble_host(client, self.wire, "a")

        apply_components(system, [self.server, self.client], self.env)

    # -------------------------------------------------------- placement

    @property
    def server_workload_node(self) -> int:
        """Node the server workload (threads + memory) is pinned to."""
        return NIC_NODE if self.config == "local" else FAR_NODE

    @property
    def client_workload_node(self) -> int:
        return 0 if self.client_config == "local" else 1

    def server_core(self, index: int = 0):
        """The index-th workload core on the server."""
        return self.server.machine.cores_on_node(
            self.server_workload_node)[index]

    def client_core(self, index: int = 0):
        return self.client.machine.cores_on_node(
            self.client_workload_node)[index]

    def run(self, until_ns: int) -> None:
        self.env.run(until=until_ns)

    def __repr__(self) -> str:
        return f"<Testbed {self.system.label()} t={self.env.now}ns>"

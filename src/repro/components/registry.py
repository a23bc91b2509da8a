"""The component registry: every toggleable IOctopus mechanism.

A :class:`Component` declares one mechanism the paper's design turns on
— DDIO, ARFS migration, XPS, the MPFS hardware fast-failover, adaptive
interrupt moderation, the §4.2 no-reorder re-steer rule — as a
*first-class, toggleable* unit: a name, the layer it lives in, its
default state, apply/remove hooks that thread the real enable/disable
path through the simulator, and a cost note answering "what does this
mechanism buy / cost" in one line.

The hooks are deliberately duck-typed: each receives ``(hosts, env)``
where ``hosts`` is the list of :class:`~repro.core.configurations.Host`
objects in the build (testbed server + client, or a single ablation
host) and ``env`` is the shared simulation environment.  They run at
**build time**, after the hosts exist but before any traffic, so they
only flip flags — no events are created and a default-configuration
build is bit-identical to one that never consulted the registry.

The ablation engine (:mod:`repro.experiments.ablate`) generates
leave-one-out matrices over exactly this registry; the fuzz grammar
draws random off-toggles from the :func:`fault_safe_component_names`
subset (components whose off-state keeps every invariant satisfiable
under fault plans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Hook signature: (hosts, env) -> None.  ``hosts`` are Host-like
#: objects exposing ``machine``, ``nic``, ``driver``, ``stack``.
Hook = Callable[[List, object], None]

#: Layers a component may live in (documentation + registry table).
LAYERS = ("memory", "nic-firmware", "nic-queues", "driver", "os-stack")


@dataclass(frozen=True)
class Component:
    """One toggleable mechanism of the reproduced system."""

    #: Registry key; also the name used in ``SystemConfig`` overrides,
    #: ablation reports and fuzz-case ``components`` dicts.
    name: str
    #: Which layer the real enable/disable path lives in.
    layer: str
    #: Paper section that introduces the mechanism.
    paper_ref: str
    #: Whether the component is on in the paper's evaluated system.
    default: bool
    #: One-line "what it buys / what it costs" note for the report.
    cost_note: str
    #: Thread the *enabled* state through the simulator (idempotent).
    apply: Hook = field(repr=False)
    #: Thread the *disabled* state through the simulator (idempotent).
    remove: Hook = field(repr=False)
    #: Safe for the fuzzer to switch off under arbitrary fault plans
    #: (False for components whose off-state legitimately violates an
    #: invariant — e.g. disabling the no-reorder rule reorders packets).
    fault_safe: bool = True

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValueError(f"layer must be one of {LAYERS}, "
                             f"got {self.layer!r}")


_REGISTRY: Dict[str, Component] = {}


def register_component(component: Component) -> Component:
    if component.name in _REGISTRY:
        raise ValueError(f"component {component.name!r} already registered")
    _REGISTRY[component.name] = component
    return component


def get_component(name: str) -> Component:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown component {name!r}; registered: "
            f"{component_names()}") from None


def component_names() -> Tuple[str, ...]:
    """Registered component names, in registration order (stable)."""
    return tuple(_REGISTRY)


def all_components() -> Tuple[Component, ...]:
    return tuple(_REGISTRY.values())


def fault_safe_component_names() -> Tuple[str, ...]:
    """Components the fuzzer may randomly disable under fault plans."""
    return tuple(name for name, comp in _REGISTRY.items()
                 if comp.fault_safe)


def default_states() -> Dict[str, bool]:
    return {name: comp.default for name, comp in _REGISTRY.items()}


# --------------------------------------------------------------- hooks
#
# Each hook flips the one real flag the simulator layers consult.  They
# set attributes only (idempotent, no events), so applying the defaults
# is a no-op relative to a build that never ran them.

def _set_ddio(hosts, env, enabled: bool) -> None:
    for host in hosts:
        host.machine.memory.ddio_enabled = enabled


def _set_arfs(hosts, env, enabled: bool) -> None:
    for host in hosts:
        host.stack.arfs_enabled = enabled


def _set_xps(hosts, env, enabled: bool) -> None:
    for host in hosts:
        host.stack.xps_enabled = enabled


def _set_fast_failover(hosts, env, enabled: bool) -> None:
    for host in hosts:
        host.nic.firmware.fast_failover = enabled


def _set_moderation(hosts, env, enabled: bool) -> None:
    for host in hosts:
        queues = host.driver.queues
        if queues is None:
            continue
        for queue in list(queues.rx) + list(queues.tx):
            if enabled:
                queue.moderation.enable()
            else:
                queue.moderation.disable()


def _set_no_reorder(hosts, env, enabled: bool) -> None:
    for host in hosts:
        host.driver.no_reorder_resteer = enabled


def _pair(fn) -> Tuple[Hook, Hook]:
    return (lambda hosts, env: fn(hosts, env, True),
            lambda hosts, env: fn(hosts, env, False))


_apply, _remove = _pair(_set_ddio)
register_component(Component(
    name="ddio", layer="memory", paper_ref="§2.2",
    default=True,
    cost_note="DMA writes allocate into the local LLC slice; off, every "
              "local receive pays DRAM like a remote one",
    apply=_apply, remove=_remove))

_apply, _remove = _pair(_set_arfs)
register_component(Component(
    name="arfs_migration", layer="os-stack", paper_ref="§2.3/§4.2",
    default=True,
    cost_note="migrating threads re-steer their flows' Rx (and the "
              "octoNIC's PF); off, flows keep DMA-ing to the old core's "
              "queue after migration",
    apply=_apply, remove=_remove))

_apply, _remove = _pair(_set_xps)
register_component(Component(
    name="xps", layer="os-stack", paper_ref="§2.3",
    default=True,
    cost_note="sockets transmit through the current core's Tx queue "
              "(and its local PF); off, transmits stay on the old "
              "queue after migration",
    apply=_apply, remove=_remove))

_apply, _remove = _pair(_set_fast_failover)
register_component(Component(
    name="mpfs_fast_failover", layer="nic-firmware", paper_ref="§4.2",
    default=True,
    fault_safe=False,  # off-state legitimately kills octo traffic on
                       # a PF-down fault (DeviceGoneError mid-run).
    cost_note="the flow-keyed MPFS steers around a dead PF in hardware; "
              "off, a dead PF's flows are dropped until the driver "
              "re-points them (standard-firmware rigidity)",
    apply=_apply, remove=_remove))

_apply, _remove = _pair(_set_moderation)
register_component(Component(
    name="interrupt_moderation", layer="nic-queues", paper_ref="§5",
    default=True,
    cost_note="adaptive per-queue coalescing amortises interrupts under "
              "streaming load; off, every burst interrupts per packet "
              "batch of one",
    apply=_apply, remove=_remove))

_apply, _remove = _pair(_set_no_reorder)
register_component(Component(
    name="no_reorder_resteer", layer="driver", paper_ref="§4.2",
    default=True,
    fault_safe=False,  # off-state is the unsafe immediate re-steer the
                       # no_reorder invariant exists to reject.
    cost_note="ARFS/IOctoRFS updates wait for the old Rx queue to "
              "drain; off, re-steers apply immediately (the unsafe "
              "baseline that reorders in-flight packets)",
    apply=_apply, remove=_remove))

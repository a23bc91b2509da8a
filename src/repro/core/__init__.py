"""The paper's contribution: the octoNIC driver stack and testbed configs."""

from repro.core.configurations import (
    CLIENT_CONFIGS,
    FAR_NODE,
    NIC_NODE,
    Host,
    Testbed,
    TestbedBuilder,
    apply_components,
    attach_octossd,
    attach_octossd_fleet,
)
from repro.core.sg import (
    SgFragment,
    SgHint,
    plan_fragments,
    transmit_with_hints,
    transmit_without_hints,
)
from repro.core.teaming import RULE_IDLE_NS, OctoTeamDriver

__all__ = [
    "CLIENT_CONFIGS",
    "FAR_NODE",
    "Host",
    "NIC_NODE",
    "OctoTeamDriver",
    "RULE_IDLE_NS",
    "SgFragment",
    "SgHint",
    "Testbed",
    "TestbedBuilder",
    "apply_components",
    "attach_octossd",
    "attach_octossd_fleet",
    "plan_fragments",
    "transmit_with_hints",
    "transmit_without_hints",
]

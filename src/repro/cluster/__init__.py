"""Rack-scale fleet simulation: N servers behind a deterministic LB,
process-sharded one server per worker, merged into one fleet view."""

from repro.cluster.executor import fleet_parallel_when, run_fleet, run_fleets
from repro.cluster.merge import FleetResult
from repro.cluster.server import run_fleet_server
from repro.cluster.spec import FLEET_BLOCKS, FleetSpec

__all__ = [
    "FLEET_BLOCKS",
    "FleetSpec",
    "FleetResult",
    "fleet_parallel_when",
    "run_fleet",
    "run_fleet_server",
    "run_fleets",
]

"""The fleet specification: one value object describing a rack-scale run.

A :class:`FleetSpec` is everything the fleet simulator needs to plan a
run *deterministically up front*: how many dual-socket servers stand
behind the load balancer, how many client connections the fleet carries,
the client-behaviour knobs (request rate, Zipf skew, churn, diurnal
curve, slow clients, incast bursts), and the optional failure scenario
(a whole-server death or a serving-PF flap).

Because the spec plus a master seed fully determine the run — the LB
assignment timeline, every block's client population, every server's
arrival schedule — each server can be simulated in its own worker
process with **no runtime coordination**: cross-server coupling (LB
reaction to a death) is quantized to epoch boundaries, which is the
bounded lag that makes the fleet embarrassingly parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, List, Optional, Tuple

from repro.components import PRESETS

#: Fleet-wide connection blocks the load balancer assigns to servers.
#: Connections are organised in blocks (not individually) so any worker
#: can regenerate any block's client population from the master seed.
FLEET_BLOCKS = 512


@dataclass(frozen=True)
class FleetSpec:
    """Everything one fleet run is, as a frozen JSON-able value object."""

    servers: int = 8
    #: Fleet-wide simulated client connections (split over FLEET_BLOCKS).
    connections: int = 1_048_576
    #: Server-side arrangement, per Testbed: "ioctopus" / "remote" / "local".
    config: str = "ioctopus"
    duration_ns: int = 10_000_000
    #: LB health/diurnal quantum: the LB re-reads server health and the
    #: diurnal curve only at epoch boundaries (the bounded lag).
    epochs: int = 8
    #: memcached-style worker cores per server.
    workers: int = 2

    # ---- client-fleet behaviour ----
    #: Mean requests/sec per connection (closed-form arrival rate).
    conn_rate_tps: float = 2.0
    set_fraction: float = 0.1
    value_bytes: int = 2048
    #: Zipf-like skew of per-connection request weight (0 = uniform).
    zipf_s: float = 1.1
    #: Mean connection lifetime for churn accounting (0 = duration / 2).
    churn_lifetime_ns: int = 0
    #: Diurnal load curve amplitude: rate swings (1-A)..(1+A) over the
    #: run (one compressed "day").
    diurnal_amplitude: float = 0.3
    #: Fraction of connections that are slow readers.
    slow_fraction: float = 0.02
    #: Extra service hold a slow client's transaction costs, as a
    #: multiple of the base per-transaction service time.
    slow_factor: float = 4.0
    #: Synchronised-arrival bursts per server per epoch, and their fan-in.
    incast_per_epoch: int = 1
    incast_fanin: int = 64

    # ---- failure scenario ----
    #: (server_id, at_ns): that server dies outright at at_ns.
    server_down: Optional[Tuple[int, int]] = None
    #: (server_id, at_ns, duration_ns): the *serving* PF of that server
    #: is surprise-removed for duration_ns.  Under "ioctopus" the team
    #: driver fails the queues over to the surviving PF (the server
    #: degrades to remote-level DMA but stays up); under standard
    #: firmware losing the serving PF kills the netdev — the server is
    #: dead to the LB.
    pf_flap: Optional[Tuple[int, int, int]] = None

    def __post_init__(self):
        if self.servers < 1:
            raise ValueError(f"servers must be >= 1, got {self.servers}")
        if self.connections < 1:
            raise ValueError(
                f"connections must be >= 1, got {self.connections}")
        if self.config not in PRESETS:
            raise ValueError(f"config must be one of {PRESETS}, "
                             f"got {self.config!r}")
        if self.duration_ns < 1:
            raise ValueError(
                f"duration_ns must be >= 1, got {self.duration_ns}")
        if not 1 <= self.epochs <= self.duration_ns:
            raise ValueError(f"epochs out of range: {self.epochs}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.conn_rate_tps <= 0:
            raise ValueError(
                f"conn_rate_tps must be > 0, got {self.conn_rate_tps}")
        if not 0.0 <= self.set_fraction <= 1.0:
            raise ValueError(
                f"set_fraction out of [0,1]: {self.set_fraction}")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1), "
                             f"got {self.diurnal_amplitude}")
        if not 0.0 <= self.slow_fraction <= 1.0:
            raise ValueError(
                f"slow_fraction out of [0,1]: {self.slow_fraction}")
        if self.slow_factor < 0:
            raise ValueError(
                f"slow_factor must be >= 0, got {self.slow_factor}")
        if self.incast_per_epoch < 0 or self.incast_fanin < 0:
            raise ValueError("incast knobs must be >= 0")
        for name, event in (("server_down", self.server_down),
                            ("pf_flap", self.pf_flap)):
            if event is None:
                continue
            if not 0 <= event[0] < self.servers:
                raise ValueError(
                    f"{name}: server {event[0]} out of range")
            if not 0 <= event[1] < self.duration_ns:
                raise ValueError(
                    f"{name}: at_ns {event[1]} outside the run")
        if self.pf_flap is not None and self.pf_flap[2] < 1:
            raise ValueError("pf_flap duration_ns must be >= 1")

    # ---------------------------------------------------------- structure

    def epoch_bounds(self) -> List[Tuple[int, int]]:
        """[start_ns, end_ns) of every epoch (equal integer splits)."""
        return [(self.duration_ns * e // self.epochs,
                 self.duration_ns * (e + 1) // self.epochs)
                for e in range(self.epochs)]

    def epoch_of(self, t_ns: int) -> int:
        """Epoch index containing ``t_ns`` (clamped to the run)."""
        if t_ns <= 0:
            return 0
        if t_ns >= self.duration_ns:
            return self.epochs - 1
        # Integer epoch edges are floor(duration*e/epochs), so the naive
        # inverse can be off by one at an edge; nudge to the true bin.
        e = min(self.epochs - 1,
                t_ns * self.epochs // self.duration_ns)
        while e > 0 and t_ns < self.duration_ns * e // self.epochs:
            e -= 1
        while (e < self.epochs - 1
               and t_ns >= self.duration_ns * (e + 1) // self.epochs):
            e += 1
        return e

    def block_sizes(self) -> List[int]:
        """Connections per block (even split, remainder on low blocks)."""
        base, extra = divmod(self.connections, FLEET_BLOCKS)
        return [base + (1 if b < extra else 0) for b in range(FLEET_BLOCKS)]

    def mean_lifetime_ns(self) -> int:
        """Churn: resolved mean connection lifetime."""
        return self.churn_lifetime_ns or max(1, self.duration_ns // 2)

    # ------------------------------------------------------------- health

    def death_ns(self, server_id: int) -> Optional[int]:
        """When ``server_id`` stops serving, or None if it survives.

        ``server_down`` kills unconditionally.  ``pf_flap`` kills only
        under standard firmware (no failover path); the octoNIC's team
        driver rides it out, so under "ioctopus" the flap is injected
        into that server's simulation as a live PF fault instead.
        """
        deaths = []
        if self.server_down is not None and self.server_down[0] == server_id:
            deaths.append(self.server_down[1])
        if (self.pf_flap is not None and self.pf_flap[0] == server_id
                and self.config != "ioctopus"):
            deaths.append(self.pf_flap[1])
        return min(deaths) if deaths else None

    def flap_for(self, server_id: int) -> Optional[Tuple[int, int]]:
        """(at_ns, duration_ns) of a survivable PF flap to inject into
        this server's simulation (ioctopus only; standard firmware
        treats the flap as a death instead — see :meth:`death_ns`)."""
        if (self.config == "ioctopus" and self.pf_flap is not None
                and self.pf_flap[0] == server_id):
            return self.pf_flap[1], self.pf_flap[2]
        return None

    # ------------------------------------------------------ serialization

    def to_dict(self) -> Dict:
        data = asdict(self)
        for key in ("server_down", "pf_flap"):
            if data[key] is not None:
                data[key] = list(data[key])
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FleetSpec":
        data = dict(data)
        for key in ("server_down", "pf_flap"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)

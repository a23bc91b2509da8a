"""The Ethernet wire between two machines (back-to-back, as in §5)."""

from __future__ import annotations

from typing import Optional

from repro.nic.packet import (FRAMING_BYTES, HEADER_BYTES, MIN_PAYLOAD,
                              wire_bytes)
from repro.sim.engine import Environment
from repro.sim.resources import BandwidthServer
from repro.sim.rng import SimRandom
from repro.units import bytes_per_sec


class WireImpairment:
    """A loss/corruption episode on the wire (bad optics, a flaky cable).

    Each packet in a batch is independently lost or corrupted with the
    given probabilities, drawn from a seeded stream so episodes replay
    identically.  Either way the packet must be retransmitted: the wire is
    charged again for it and the batch pays one extra propagation round.
    """

    def __init__(self, rng: SimRandom, loss_probability: float = 0.0,
                 corrupt_probability: float = 0.0):
        for name, p in (("loss", loss_probability),
                        ("corrupt", corrupt_probability)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability out of range: {p}")
        if loss_probability + corrupt_probability > 1.0:
            raise ValueError("loss + corrupt probability exceeds 1")
        self.rng = rng
        self.loss_probability = loss_probability
        self.corrupt_probability = corrupt_probability

    def losses(self, npackets: int) -> tuple:
        """(lost, corrupted) counts for a batch of ``npackets``.

        One seeded batch draw replaces the per-packet RNG loop; the
        stream consumed and the per-draw classification are identical to
        the original ``random()``-per-packet code, so replays (and the
        golden tests) are byte-for-byte unchanged.
        """
        if npackets <= 0:
            return 0, 0
        p_loss = self.loss_probability
        p_bad = p_loss + self.corrupt_probability
        draws = self.rng.batch(npackets)
        bad = [draw for draw in draws if draw < p_bad]
        lost = sum(1 for draw in bad if draw < p_loss)
        return lost, len(bad) - lost


class EthernetWire:
    """A full-duplex point-to-point Ethernet link."""

    def __init__(self, env: Environment, gigabits: float = 100.0,
                 propagation_ns: int = 600):
        if gigabits <= 0:
            raise ValueError(f"link speed must be > 0, got {gigabits}")
        self.env = env
        self.gigabits = gigabits
        self.propagation_ns = int(propagation_ns)
        rate = bytes_per_sec(gigabits)
        self.a_to_b = BandwidthServer(env, rate, name="wire.a->b")
        self.b_to_a = BandwidthServer(env, rate, name="wire.b->a")
        self._servers = {"a_to_b": self.a_to_b, "b_to_a": self.b_to_a}
        self._impairment: Optional[WireImpairment] = None
        self.drops_total = 0
        self.corruptions_total = 0
        self.retransmitted_packets = 0
        #: Offered load per direction, before impairment retransmits:
        #: what the senders handed to the wire.  Invariant checks compare
        #: these against the receive-side NIC queue ledgers.
        self.packets_offered = {"a_to_b": 0, "b_to_a": 0}
        self.payload_bytes_offered = {"a_to_b": 0, "b_to_a": 0}

    # -------------------------------------------------------- impairment

    def start_impairment(self, rng: SimRandom,
                         loss_probability: float = 0.0,
                         corrupt_probability: float = 0.0) -> None:
        """Begin a loss/corruption episode (both directions)."""
        self._impairment = WireImpairment(rng, loss_probability,
                                          corrupt_probability)

    def stop_impairment(self) -> None:
        self._impairment = None

    @property
    def is_impaired(self) -> bool:
        return self._impairment is not None

    # -------------------------------------------------------------- send

    def send(self, direction: str, npackets: int, payload_bytes: int) -> int:
        """Charge a packet batch; returns the wire delay in ns."""
        if npackets < 0:
            raise ValueError(f"negative packet count {npackets}")
        if payload_bytes < 0:
            raise ValueError(f"negative payload {payload_bytes}")
        try:
            server = self._servers[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None
        self.packets_offered[direction] += npackets
        self.payload_bytes_offered[direction] += npackets * payload_bytes
        # wire_bytes(payload_bytes), inline (hot path).
        frame = (MIN_PAYLOAD if MIN_PAYLOAD > payload_bytes
                 else payload_bytes) + HEADER_BYTES + FRAMING_BYTES
        delay = self.propagation_ns + server.account(npackets * frame)
        if self._impairment is not None and npackets:
            lost, corrupted = self._impairment.losses(npackets)
            bad = lost + corrupted
            if bad:
                self.drops_total += lost
                self.corruptions_total += corrupted
                self.retransmitted_packets += bad
                # Retransmission: the bad packets cross the wire again
                # after one propagation round of recovery (SACK/FEC).
                delay += self.propagation_ns + server.account(bad * frame)
        return delay

    def line_rate_packets_per_sec(self, payload_bytes: int) -> float:
        """Maximum packet rate the wire sustains at this payload size."""
        return bytes_per_sec(self.gigabits) / wire_bytes(payload_bytes)

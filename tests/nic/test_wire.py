"""Tests for the Ethernet wire."""

import pytest

from repro.nic.packet import wire_bytes
from repro.nic.wire import EthernetWire
from repro.sim import Environment


def test_wire_delay_includes_propagation_and_service():
    wire = EthernetWire(Environment(), gigabits=100, propagation_ns=600)
    delay = wire.send("a_to_b", 1, 1500)
    service = int(round(wire_bytes(1500) * 8 / 100))  # ns at 100 Gb/s
    assert delay == 600 + service


@pytest.mark.parametrize("payload", [0, 1, 45, 46, 47, 1448, 9000])
def test_wire_charges_wire_bytes_per_packet(payload):
    """``send`` sizes its frames inline: each packet charges exactly
    ``wire_bytes(payload)``, minimum-payload padding included."""
    wire = EthernetWire(Environment(), gigabits=100)
    wire.send("a_to_b", 3, payload)
    assert wire.a_to_b.bytes_total == 3 * wire_bytes(payload)


def test_wire_directions_independent():
    wire = EthernetWire(Environment(), gigabits=100)
    wire.send("a_to_b", 1000, 1500)
    # Reverse direction sees no backlog.
    baseline = wire.send("b_to_a", 1, 1500)
    assert baseline < 2000


def test_wire_backlog_accumulates_same_direction():
    wire = EthernetWire(Environment(), gigabits=100)
    first = wire.send("a_to_b", 64, 1500)
    second = wire.send("a_to_b", 64, 1500)
    assert second > first


def test_wire_line_rate_packets_per_sec():
    wire = EthernetWire(Environment(), gigabits=100)
    rate = wire.line_rate_packets_per_sec(1500)
    # ~7.8 Mpps for MTU frames at 100 GbE
    assert 7e6 < rate < 9e6


def test_wire_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        EthernetWire(env, gigabits=0)
    wire = EthernetWire(env)
    with pytest.raises(ValueError):
        wire.send("sideways", 1, 100)
    with pytest.raises(ValueError):
        wire.send("a_to_b", -1, 100)
    with pytest.raises(ValueError):
        wire.send("a_to_b", 1, -1)


def test_impairment_validates_probabilities():
    from repro.nic.wire import WireImpairment
    from repro.sim.rng import SimRandom
    rng = SimRandom(0)
    with pytest.raises(ValueError):
        WireImpairment(rng, loss_probability=1.5)
    with pytest.raises(ValueError):
        WireImpairment(rng, corrupt_probability=-0.1)
    with pytest.raises(ValueError):
        WireImpairment(rng, loss_probability=0.6, corrupt_probability=0.6)


def test_impairment_losses_are_seed_deterministic():
    from repro.nic.wire import WireImpairment
    from repro.sim.rng import SimRandom
    a = WireImpairment(SimRandom(5), loss_probability=0.3,
                       corrupt_probability=0.1)
    b = WireImpairment(SimRandom(5), loss_probability=0.3,
                       corrupt_probability=0.1)
    assert [a.losses(100) for _ in range(5)] == \
        [b.losses(100) for _ in range(5)]


def test_impairment_batch_draw_matches_per_packet_reference():
    """The vectorised losses() must consume the identical RNG stream and
    classify each draw exactly like the original per-packet loop."""
    from repro.nic.wire import WireImpairment
    from repro.sim.rng import SimRandom
    p_loss, p_corrupt = 0.05, 0.03
    imp = WireImpairment(SimRandom(9), loss_probability=p_loss,
                         corrupt_probability=p_corrupt)
    reference = SimRandom(9)
    for npackets in (1, 7, 64, 1000):
        lost = corrupted = 0
        for _ in range(npackets):
            draw = reference.random()
            if draw < p_loss:
                lost += 1
            elif draw < p_loss + p_corrupt:
                corrupted += 1
        assert imp.losses(npackets) == (lost, corrupted)


def test_impairment_losses_zero_packets():
    from repro.nic.wire import WireImpairment
    from repro.sim.rng import SimRandom
    imp = WireImpairment(SimRandom(3), loss_probability=0.5)
    assert imp.losses(0) == (0, 0)


def test_impaired_wire_charges_retransmits():
    from repro.sim.rng import SimRandom
    env = Environment()
    clean = EthernetWire(env, gigabits=100)
    clean_delay = clean.send("a_to_b", 1000, 1500)

    lossy = EthernetWire(Environment(), gigabits=100)
    lossy.start_impairment(SimRandom(1), loss_probability=0.2)
    lossy_delay = lossy.send("a_to_b", 1000, 1500)
    assert lossy.drops_total > 0
    assert lossy.retransmitted_packets == \
        lossy.drops_total + lossy.corruptions_total
    # Retransmitted bytes plus one extra propagation round cost time.
    assert lossy_delay > clean_delay


def test_stop_impairment_restores_clean_wire():
    from repro.sim.rng import SimRandom
    wire = EthernetWire(Environment(), gigabits=100)
    wire.start_impairment(SimRandom(2), loss_probability=0.5)
    assert wire.is_impaired
    wire.send("a_to_b", 100, 1500)
    dropped = wire.drops_total
    assert dropped > 0
    wire.stop_impairment()
    assert not wire.is_impaired
    wire.send("a_to_b", 100, 1500)
    assert wire.drops_total == dropped

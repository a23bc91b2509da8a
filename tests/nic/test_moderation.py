"""Tests for adaptive interrupt coalescing."""

import pytest

from repro.device.moderation import (
    HIGH_RATE_PPS,
    MAX_COALESCED_FRAMES,
    AdaptiveCoalescing,
)


def test_first_batch_interrupts_per_packet():
    moderation = AdaptiveCoalescing()
    # No rate history yet: latency-first, one interrupt per packet.
    assert moderation.interrupts_for(10, now_ns=0) == 10


def test_high_rate_reaches_full_coalescing():
    moderation = AdaptiveCoalescing()
    now = 0
    for _ in range(50):
        moderation.interrupts_for(64, now_ns=now)
        now += 10_000  # 64 pkts / 10 us = 6.4 Mpps
    assert moderation.observed_pps > HIGH_RATE_PPS
    assert moderation.current_budget() == MAX_COALESCED_FRAMES
    assert moderation.interrupts_for(128, now_ns=now) == 2


def test_low_rate_stays_per_packet():
    moderation = AdaptiveCoalescing()
    now = 0
    for _ in range(50):
        moderation.interrupts_for(1, now_ns=now)
        now += 1_000_000  # 1 kpps
    assert moderation.current_budget() == 1
    assert moderation.interrupts_for(4, now_ns=now) == 4


def test_budget_ramps_between_thresholds():
    moderation = AdaptiveCoalescing()
    now = 0
    for _ in range(200):
        moderation.interrupts_for(1, now_ns=now)
        now += 4_000  # 250 kpps: between LOW and HIGH
    budget = moderation.current_budget()
    assert 1 < budget < MAX_COALESCED_FRAMES


def test_disable_forces_per_packet_even_at_high_rate():
    moderation = AdaptiveCoalescing()
    now = 0
    for _ in range(50):
        moderation.interrupts_for(64, now_ns=now)
        now += 10_000
    moderation.disable()
    assert moderation.current_budget() == 1
    moderation.enable()
    assert moderation.current_budget() == MAX_COALESCED_FRAMES


def test_rate_decays_when_traffic_slows():
    moderation = AdaptiveCoalescing()
    now = 0
    for _ in range(50):
        moderation.interrupts_for(64, now_ns=now)
        now += 10_000
    fast = moderation.observed_pps
    for _ in range(50):
        moderation.interrupts_for(1, now_ns=now)
        now += 10_000_000
    assert moderation.observed_pps < fast / 10


def test_same_instant_batches_accumulate():
    moderation = AdaptiveCoalescing()
    moderation.interrupts_for(64, now_ns=100)
    before = moderation.observed_pps
    moderation.interrupts_for(64, now_ns=100)  # zero elapsed
    assert moderation.observed_pps >= before


def test_validation():
    with pytest.raises(ValueError):
        AdaptiveCoalescing(max_frames=0)
    moderation = AdaptiveCoalescing()
    with pytest.raises(ValueError):
        moderation.interrupts_for(0, now_ns=0)


def test_queues_carry_moderation_state():
    from repro.core import Testbed
    testbed = Testbed("local")
    queue = testbed.server.driver.rx_queue_for_core(testbed.server_core(0))
    assert isinstance(queue.moderation, AdaptiveCoalescing)
    assert queue.moderation.enabled

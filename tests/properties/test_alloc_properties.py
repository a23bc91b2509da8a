"""Property tests for the interrupt-moderation ramp."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.moderation import AdaptiveCoalescing


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=256),
                          st.integers(min_value=1, max_value=10**7)),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_moderation_never_exceeds_packet_count(batches):
    moderation = AdaptiveCoalescing()
    now = 0
    for npackets, gap in batches:
        interrupts = moderation.interrupts_for(npackets, now)
        assert 1 <= interrupts <= npackets
        assert 1 <= moderation.current_budget() <= moderation.max_frames
        now += gap


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=30, deadline=None)
def test_moderation_disabled_is_per_packet(npackets):
    moderation = AdaptiveCoalescing(enabled=False)
    # Drive the observed rate high anyway.
    now = 0
    for _ in range(20):
        moderation.interrupts_for(64, now)
        now += 1000
    assert moderation.interrupts_for(npackets, now) == npackets

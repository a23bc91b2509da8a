"""Property tests for the NUMA allocator and the moderation ramp."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.moderation import AdaptiveCoalescing
from repro.os_model.alloc import PAGE, NumaAllocator, OutOfMemoryError
from repro.topology import dell_r730


@st.composite
def alloc_programs(draw):
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "migrate"]),
            st.sampled_from(["local", "node", "interleave", "preferred"]),
            st.integers(min_value=1, max_value=512 * 1024),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1, max_size=40))
    return ops


@given(alloc_programs())
@settings(max_examples=60, deadline=None)
def test_allocator_accounting_is_exact(ops):
    allocator = NumaAllocator(dell_r730())
    live = []
    for i, (op, policy, size, node) in enumerate(ops):
        try:
            if op == "alloc":
                live.append(allocator.alloc(
                    f"r{i}", size, policy=policy, cpu_node=node,
                    target_node=node))
            elif op == "free" and live:
                allocator.free(live.pop())
            elif op == "migrate" and live:
                live[-1] = allocator.migrate(live[-1], node)
        except OutOfMemoryError:
            pass
        # Invariants after every operation:
        for n, used in allocator.allocated.items():
            assert 0 <= used <= allocator.capacity[n]
            assert used % PAGE == 0
        total_live = sum(r.allocated_bytes for r in allocator.regions)
        assert total_live == sum(allocator.allocated.values())
    # Every live region is page-rounded and at least its requested size.
    for region in live:
        assert region.allocated_bytes >= region.size
        assert region.allocated_bytes % PAGE == 0


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

"""Unit tests for the LLC model."""

import pytest

from repro.memory.llc import LastLevelCache
from repro.memory.region import Region


def make_llc(capacity=1000, ddio_fraction=0.1):
    return LastLevelCache(node_id=0, capacity=capacity,
                          ddio_fraction=ddio_fraction)


def region(name="r", node=0, size=500, nt=False):
    return Region(name=name, home_node=node, size=size, non_temporal=nt)


def test_empty_cache_zero_residency():
    llc = make_llc()
    assert llc.residency(region()) == 0.0


def test_load_establishes_residency():
    llc = make_llc()
    r = region(size=500)
    llc.load(r, 250)
    assert llc.residency(r) == pytest.approx(0.5)
    llc.load(r, 250)
    assert llc.residency(r) == pytest.approx(1.0)


def test_load_cannot_exceed_region_size():
    llc = make_llc()
    r = region(size=100)
    llc.load(r, 500)
    assert llc.resident_bytes(r) == 100
    assert llc.occupied == 100
    # Nor can a negative size shrink it.
    llc.load(r, -50)
    assert llc.resident_bytes(r) == 100
    assert llc.occupied == 100


def test_lru_eviction_on_overflow():
    llc = make_llc(capacity=1000)
    old = region("old", size=600)
    new = region("new", size=600)
    llc.load(old, 600)
    llc.load(new, 600)
    assert llc.residency(old) == 0.0
    assert llc.resident_bytes(new) == 600


def test_touch_protects_from_eviction():
    # A CPU access and a reload of the (fully resident) region mark it
    # most recently used just as touch() does.
    for use in (lambda llc, r: llc.touch(r),
                lambda llc, r: llc.stream_access(r, 64),
                lambda llc, r: llc.load(r, 64)):
        llc = make_llc(capacity=1000)
        a = region("a", size=500)
        b = region("b", size=400)
        llc.load(a, 500)
        llc.load(b, 400)
        use(llc, a)  # now b is LRU
        llc.load(region("c", size=500), 500)
        assert llc.residency(b) == 0.0
        assert llc.resident_bytes(a) == 500


def test_single_region_larger_than_cache_clamps():
    llc = make_llc(capacity=1000)
    big = region("big", size=5000)
    llc.load(big, 5000)
    assert llc.occupied == 1000
    assert llc.residency(big) == pytest.approx(0.2)


def test_non_temporal_regions_never_allocate():
    llc = make_llc()
    nt = region("stream", size=500, nt=True)
    llc.load(nt, 500)
    assert llc.residency(nt) == 0.0
    assert llc.ddio_write(nt, 500) == 0


def test_ddio_write_capped_by_slice():
    llc = make_llc(capacity=1000, ddio_fraction=0.1)  # slice = 100
    r = region(size=500)
    absorbed = llc.ddio_write(r, 400)
    assert absorbed == 100
    assert llc.resident_bytes(r) == 100


def test_ddio_slice_evicts_older_ddio_allocations():
    llc = make_llc(capacity=1000, ddio_fraction=0.2)  # slice = 200
    a = region("a", size=300)
    b = region("b", size=300)
    assert llc.ddio_write(a, 150) == 150
    assert llc.ddio_write(b, 150) == 150
    # a's DDIO bytes were squeezed to keep the slice at 200
    assert llc.resident_bytes(a) + llc.resident_bytes(b) <= 1000
    total_ddio = llc._ddio_occupied
    assert total_ddio <= 200


def test_invalidate_reduces_residency():
    llc = make_llc()
    r = region(size=500)
    llc.load(r, 500)
    dropped = llc.invalidate(r, 200)
    assert dropped == 200
    assert llc.resident_bytes(r) == 300
    assert llc.invalidated_bytes == 200


def test_invalidate_whole_region():
    llc = make_llc()
    r = region(size=500)
    llc.load(r, 500)
    assert llc.invalidate(r) == 500
    assert llc.residency(r) == 0.0


def test_invalidate_absent_region_is_noop():
    llc = make_llc()
    assert llc.invalidate(region()) == 0


def test_record_access_counts_hits_and_misses():
    """A streaming access counts its hits and misses at the region's
    residency fraction, returns the missed bytes and, when any byte
    missed, allocates the access (``stream_access`` replaced the
    ``record_access`` + ``load`` pair)."""
    llc = make_llc(capacity=10_000)
    r = region(size=1000)
    llc.load(r, 500)
    assert llc.stream_access(r, 1000) == 500
    assert (llc.hits_bytes, llc.miss_bytes) == (500, 500)
    assert llc.resident_bytes(r) == 1000
    # Fully resident: every byte hits.
    assert llc.stream_access(r, 200) == 0
    assert (llc.hits_bytes, llc.miss_bytes) == (700, 500)
    # Absent region: every byte misses and is allocated.
    other = region("other", size=1000)
    assert llc.stream_access(other, 300) == 300
    assert (llc.hits_bytes, llc.miss_bytes) == (700, 800)
    assert llc.resident_bytes(other) == 300
    # A non-temporal region is counted but never allocated.
    nt = region("nt", size=1000, nt=True)
    assert llc.stream_access(nt, 100) == 100
    assert (llc.hits_bytes, llc.miss_bytes) == (700, 900)
    assert llc.resident_bytes(nt) == 0
    assert llc.occupied == 1300


def test_invalid_construction():
    with pytest.raises(ValueError):
        LastLevelCache(0, capacity=0, ddio_fraction=0.1)
    with pytest.raises(ValueError):
        LastLevelCache(0, capacity=100, ddio_fraction=0.0)
    with pytest.raises(ValueError):
        LastLevelCache(0, capacity=100, ddio_fraction=1.5)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(name="bad", home_node=0, size=0)
    with pytest.raises(ValueError):
        Region(name="bad", home_node=-1, size=10)


def test_occupancy_never_negative_after_mixed_ops():
    llc = make_llc(capacity=500, ddio_fraction=0.5)
    regions = [region(f"r{i}", size=200) for i in range(5)]
    for i, r in enumerate(regions):
        if i % 2:
            llc.ddio_write(r, 200)
        else:
            llc.load(r, 200)
        llc.invalidate(regions[i // 2], 50)
    assert llc.occupied >= 0
    assert llc._ddio_occupied >= 0
    assert llc.occupied <= llc.capacity


def _entries(llc):
    return [(r.name, e.resident, e.ddio) for r, e in llc._entries.items()]


def test_ddio_eviction_shrinks_oldest_ddio_first_and_keeps_freshness():
    """DDIO overflow shrinks the oldest DDIO allocations: entries without
    DDIO bytes (even an empty one) are left alone, a victim may shrink
    partially, and one shrunk to nothing is deleted *without* clearing
    its ``dma_llc_node`` — a known quirk, kept on purpose (ROADMAP item
    4), unlike capacity eviction and invalidate."""
    llc = make_llc(capacity=10_000, ddio_fraction=0.1)  # slice = 1000
    cpu = region("cpu", size=1000)
    empty = region("empty", size=1000)
    a = region("a", size=1000)
    b = region("b", size=1000)
    new = region("new", size=5000)
    llc.load(cpu, 300)
    llc.load(empty, 0)
    llc.ddio_write(a, 200)
    llc.ddio_write(b, 500)
    a.dma_llc_node = b.dma_llc_node = 0
    assert llc.ddio_write(new, 800) == 800
    # Over by 500: a loses its 200 (deleted), b 300 of its 500.
    assert _entries(llc) == [("cpu", 300, 0), ("empty", 0, 0),
                             ("b", 200, 200), ("new", 800, 800)]
    assert (llc.occupied, llc.ddio_occupied) == (1300, 1000)
    assert llc.resident_bytes(a) == 0
    assert a.dma_llc_node == 0          # the quirk
    assert b.dma_llc_node == 0


def test_ddio_eviction_shrinks_the_newest_region_last():
    llc = make_llc(capacity=10_000, ddio_fraction=0.1)  # slice = 1000
    old = region("old", size=1000)
    new = region("new", size=5000)
    llc.ddio_write(old, 300)
    llc.ddio_write(new, 600)
    assert llc.ddio_write(new, 900) == 900
    # Over by 800: all of old's 300 go first, then 500 of new's own.
    assert _entries(llc) == [("new", 1000, 1000)]
    assert (llc.occupied, llc.ddio_occupied) == (1000, 1000)
    # Alone, the region is clamped to the slice and stays resident.
    assert llc.ddio_write(new, 1000) == 1000
    assert _entries(llc) == [("new", 1000, 1000)]


def test_capacity_eviction_clears_this_nodes_freshness():
    llc = make_llc(capacity=1000, ddio_fraction=0.5)
    ring = region("ring", size=400)
    other = region("other", size=400)
    llc.ddio_write(ring, 400)
    llc.load(other, 400)
    ring.dma_llc_node = 0
    other.dma_llc_node = 1              # fresh in another node's LLC
    llc.load(region("big", size=900), 900)
    assert _entries(llc) == [("big", 900, 0)]
    assert (llc.occupied, llc.ddio_occupied) == (900, 0)
    assert ring.dma_llc_node is None
    assert other.dma_llc_node == 1


def test_capacity_eviction_clamps_a_lone_region():
    llc = make_llc(capacity=1000, ddio_fraction=0.5)
    llc.load(region("small", size=300), 300)
    big = region("big", size=5000)
    llc.ddio_write(big, 400)
    big.dma_llc_node = 0
    llc.load(big, 2000)
    # small goes first; then big alone is clamped, keeping its DDIO bytes.
    assert _entries(llc) == [("big", 1000, 400)]
    assert (llc.occupied, llc.ddio_occupied) == (1000, 400)
    assert big.dma_llc_node == 0

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
                lambda llc, r: llc.record_access(r, 64),
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
    llc = make_llc()
    r = region(size=1000)
    llc.load(r, 500)
    fraction = llc.record_access(r, 1000)
    assert fraction == pytest.approx(0.5)
    assert llc.hits_bytes == 500
    assert llc.miss_bytes == 500
    # Fully resident: every byte hits.
    llc.load(r, 500)
    assert llc.record_access(r, 200) == 1.0
    assert (llc.hits_bytes, llc.miss_bytes) == (700, 500)
    # Absent region: every byte misses and nothing is allocated.
    other = region("other", size=1000)
    assert llc.record_access(other, 300) == 0.0
    assert (llc.hits_bytes, llc.miss_bytes) == (700, 800)
    assert llc.resident_bytes(other) == 0


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

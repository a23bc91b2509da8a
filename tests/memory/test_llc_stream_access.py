"""``LastLevelCache.stream_access`` against the two calls it replaced.

A CPU streaming access used to be ``record_access`` (count hits and
misses at the residency fraction, mark the region most recently used)
followed, when any byte missed, by ``load``.  The test keeps that pair
as its reference and runs random access sequences through both: every
access must return the same missed bytes and leave the same LLC.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.llc import LastLevelCache
from repro.memory.region import Region


def _reference_access(llc, region, nbytes):
    """``record_access`` + ``load``, as ``MemorySystem`` called them."""
    entry = llc._entries.get(region)
    if entry is None:
        llc.miss_bytes += nbytes
        fraction = 0.0
    else:
        fraction = entry.resident / region.size
        fraction = fraction if fraction < 1.0 else 1.0
        hit = int(nbytes * fraction)
        llc.hits_bytes += hit
        llc.miss_bytes += nbytes - hit
        llc._entries.move_to_end(region)
    miss = int(nbytes * (1.0 - fraction))
    if miss:
        llc.load(region, nbytes)
    return miss


def _state(llc, regions):
    return ([(r.name, e.resident, e.ddio) for r, e in llc._entries.items()],
            llc.occupied, llc.ddio_occupied, llc.hits_bytes,
            llc.miss_bytes, llc.invalidated_bytes,
            [r.dma_llc_node for r in regions])


def _run(ops, sizes, capacity, ddio_fraction, access):
    """Apply ``ops`` to a fresh LLC with its own regions; returns each
    streaming access's missed bytes and the state after every op."""
    llc = LastLevelCache(node_id=0, capacity=capacity,
                         ddio_fraction=ddio_fraction)
    regions = [Region(name=f"r{i}", home_node=i % 2, size=size,
                      non_temporal=nt)
               for i, (size, nt) in enumerate(sizes)]
    # One region's DMA data sits fresh in the other socket's LLC.
    regions[-1].dma_llc_node = 1
    misses, states = [], []
    for kind, index, nbytes in ops:
        region = regions[index % len(regions)]
        if kind == "access":
            misses.append(access(llc, region, nbytes))
        elif kind == "load":
            llc.load(region, nbytes)
        elif kind == "ddio":
            if llc.ddio_write(region, nbytes):
                region.dma_llc_node = 0
        else:
            llc.invalidate(region, nbytes)
        states.append(_state(llc, regions))
    return misses, states


_ops = st.lists(
    st.tuples(st.sampled_from(("access", "access", "load", "ddio",
                               "invalidate")),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=4000)),
    max_size=40)
_sizes = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3000), st.booleans()),
    min_size=1, max_size=6)


@given(_ops, _sizes, st.integers(min_value=200, max_value=6000),
       st.sampled_from((0.1, 0.25, 0.5, 1.0)))
@settings(max_examples=300, deadline=None)
def test_stream_access_matches_record_access_then_load(
        ops, sizes, capacity, ddio_fraction):
    """Same missed bytes per access; same entries in the same recency
    order, the same resident/DDIO bytes and occupancy, hit/miss counters
    and ``dma_llc_node``s, through capacity and DDIO-slice evictions."""
    assert (_run(ops, sizes, capacity, ddio_fraction,
                 LastLevelCache.stream_access)
            == _run(ops, sizes, capacity, ddio_fraction, _reference_access))


def test_stream_access_matches_on_the_edge_cases():
    """A fully resident region, a nearly resident one whose miss rounds
    to 0 bytes (no allocation), an absent one, a zero-byte access, a
    non-temporal region, and a region larger than the cache."""
    sizes = [(1000, False), (1000, False), (500, True), (9000, False)]
    ops = [("load", 0, 1000), ("access", 0, 4096),
           ("load", 1, 999), ("access", 1, 100),
           ("access", 2, 300), ("access", 3, 0),
           ("access", 3, 4000), ("access", 3, 4000),
           ("ddio", 1, 400), ("access", 0, 64)]
    ours = _run(ops, sizes, 5000, 0.1, LastLevelCache.stream_access)
    assert ours == _run(ops, sizes, 5000, 0.1, _reference_access)
    assert ours[0][:3] == [0, 0, 300]

"""LatencyRecorder.merge and the compact mergeable LatencyDigest."""

import math

import pytest

from repro.metrics.collect import (DIGEST_BUCKETS_PER_OCTAVE, DigestError,
                                   DigestMergeError, LatencyDigest,
                                   LatencyRecorder)
from repro.sim.rng import SimRandom

#: Any digest percentile must sit within one log bucket of the exact
#: sample percentile.
BUCKET_REL = 2.0 ** (1.0 / DIGEST_BUCKETS_PER_OCTAVE) - 1.0


def _recorder(samples):
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record(sample)
    return recorder


def _heavy_tail(rng, n, scale=20_000):
    return [int(scale * (1.0 + 50.0 * rng.random() ** 8)) + i % 7
            for i in range(n)]


def test_recorder_merge_matches_concatenation():
    rng = SimRandom(7, "digest")
    a, b = _heavy_tail(rng, 400), _heavy_tail(rng, 700)
    merged = _recorder(a).merge(_recorder(b))
    whole = _recorder(a + b)
    for p in (0, 25, 50, 90, 99, 100):
        assert merged.percentile(p) == whole.percentile(p)
    assert merged.average() == whole.average()
    assert len(merged) == len(a) + len(b)


def test_recorder_merge_invalidates_sorted_cache():
    a = _recorder([5, 1, 9])
    assert a.percentile(50) == 5  # read before the merge
    a.merge(_recorder([100, 200]))
    assert a.percentile(100) == 200


def test_digest_percentiles_within_one_bucket_of_exact():
    rng = SimRandom(3, "digest")
    samples = _heavy_tail(rng, 5000)
    recorder = _recorder(samples)
    digest = LatencyDigest.from_recorder(recorder)
    for p in (1, 10, 50, 90, 99, 99.9):
        exact = recorder.percentile(p)
        got = digest.percentile(p)
        assert abs(got - exact) <= math.ceil(BUCKET_REL * exact) + 1, (
            f"p{p}: digest {got} vs exact {exact}")
    # Extremes are tracked exactly, not bucketed.
    assert digest.percentile(0) == recorder.min()
    assert digest.percentile(100) == recorder.max()
    assert digest.average() == pytest.approx(recorder.average())


def test_digest_merge_equals_whole_digest_exactly():
    rng = SimRandom(11, "digest")
    shards = [_heavy_tail(rng, n) for n in (301, 999, 44, 2000)]
    merged = LatencyDigest()
    for shard in shards:
        merged.merge(LatencyDigest.from_recorder(_recorder(shard)))
    whole = LatencyDigest.from_recorder(
        _recorder([s for shard in shards for s in shard]))
    assert merged.to_dict() == whole.to_dict()
    for p in (50, 99):
        assert merged.percentile(p) == whole.percentile(p)


def test_digest_merge_order_independent():
    rng = SimRandom(2, "digest")
    shards = [LatencyDigest.from_recorder(_recorder(_heavy_tail(rng, n)))
              for n in (100, 500, 250)]
    forward = LatencyDigest()
    for shard in shards:
        forward.merge(shard)
    backward = LatencyDigest()
    for shard in reversed(shards):
        backward.merge(shard)
    assert forward.to_dict() == backward.to_dict()


def test_digest_round_trips_through_json_dict():
    rng = SimRandom(5, "digest")
    digest = LatencyDigest.from_recorder(
        _recorder(_heavy_tail(rng, 800)))
    clone = LatencyDigest.from_dict(digest.to_dict())
    assert clone.to_dict() == digest.to_dict()
    assert clone.percentile(99) == digest.percentile(99)


def test_digest_compactness():
    """A heavy-tailed million-ish sample set stays a few hundred
    buckets — the point of shipping digests instead of samples."""
    rng = SimRandom(9, "digest")
    digest = LatencyDigest()
    for sample in _heavy_tail(rng, 20_000, scale=1_000_000):
        digest.record(sample)
    assert digest.count == 20_000
    assert len(digest.buckets) < 200


def test_digest_validation():
    digest = LatencyDigest()
    with pytest.raises(ValueError):
        digest.record(-1)
    with pytest.raises(ValueError):
        digest.percentile(50)  # empty
    digest.record(10)
    with pytest.raises(ValueError):
        digest.percentile(101)
    bad = digest.to_dict()
    bad["count"] = 5
    with pytest.raises(ValueError):
        LatencyDigest.from_dict(bad)


def test_weighted_record_equals_repeated_records():
    weighted = LatencyDigest()
    weighted.record(5_000, n=7)
    repeated = LatencyDigest()
    for _ in range(7):
        repeated.record(5_000)
    assert weighted.to_dict() == repeated.to_dict()
    with pytest.raises(ValueError):
        weighted.record(1, n=0)


def test_empty_digest_percentile_raises_typed_error():
    with pytest.raises(DigestError):
        LatencyDigest().percentile(50)
    # DigestError subclasses ValueError, so legacy handlers still catch.
    assert issubclass(DigestError, ValueError)


def test_single_bucket_percentiles_interpolate_between_extremes():
    digest = LatencyDigest()
    digest.record(1000, n=3)
    digest.record(1001, n=3)
    assert len(digest.buckets) == 1            # 0.1% apart: same bucket
    assert digest.percentile(0) == 1000
    assert digest.percentile(100) == 1001
    # Every interior percentile sits within [min, max] — never the
    # bucket's geometric midpoint overshooting both.
    for p in (25, 50, 75, 99):
        assert 1000 <= digest.percentile(p) <= 1001
    lone = LatencyDigest()
    lone.record(4242, n=5)
    assert lone.percentile(50) == 4242


def test_merge_rejects_mismatched_bucket_bases():
    fine = LatencyDigest()
    coarse = LatencyDigest(buckets_per_octave=4)
    fine.record(100)
    coarse.record(100)
    with pytest.raises(DigestMergeError):
        fine.merge(coarse)
    # Non-default resolution round-trips through the dict form.
    clone = LatencyDigest.from_dict(coarse.to_dict())
    assert clone.buckets_per_octave == 4
    clone.merge(coarse)                        # same base: fine
    assert clone.count == 2


def test_digest_small_values_share_bucket_zero():
    digest = LatencyDigest()
    digest.record(0)
    digest.record(1)
    assert digest.buckets == {0: 2}
    assert digest.percentile(50) <= 1  # within bucket 0
    assert digest.percentile(0) == 0  # exact min
    assert digest.percentile(100) == 1  # exact max

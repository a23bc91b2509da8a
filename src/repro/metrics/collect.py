"""Measurement primitives: counters, time series, percentiles, reports."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ThroughputMeter:
    """Accumulates (bytes, messages) over a measurement window."""

    start_ns: int = 0
    bytes_total: int = 0
    messages_total: int = 0
    end_ns: Optional[int] = None

    def record(self, nbytes: int, nmessages: int = 1) -> None:
        self.bytes_total += nbytes
        self.messages_total += nmessages

    def finish(self, now_ns: int) -> None:
        self.end_ns = now_ns

    @property
    def elapsed_ns(self) -> int:
        if self.end_ns is None:
            raise ValueError("finish() not called")
        return max(1, self.end_ns - self.start_ns)

    def gbps(self) -> float:
        return self.bytes_total * 8 / self.elapsed_ns

    def mpps(self) -> float:
        return self.messages_total * 1e3 / self.elapsed_ns

    def ktps(self) -> float:
        """Kilo-transactions/sec (memcached's unit in Fig 10)."""
        return self.messages_total * 1e6 / self.elapsed_ns


class LatencyRecorder:
    """Collects latency samples; reports average and percentiles."""

    def __init__(self):
        self.samples: List[int] = []
        # Cached ascending view for percentile(); invalidated on record()
        # so repeated percentile reads sort at most once per new sample
        # batch instead of once per call.
        self._sorted: Optional[List[int]] = None

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self.samples.append(latency_ns)
        self._sorted = None

    def __len__(self) -> int:
        return len(self.samples)

    def average(self) -> float:
        if not self.samples:
            raise ValueError("no samples recorded")
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile, p in [0, 100]."""
        if not self.samples:
            raise ValueError("no samples recorded")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self.samples)
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        return ordered[rank - 1]

    def min(self) -> int:
        if not self.samples:
            raise ValueError("no samples recorded")
        return min(self.samples)

    def max(self) -> int:
        if not self.samples:
            raise ValueError("no samples recorded")
        return max(self.samples)

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold another recorder's samples into this one.

        Percentiles over the merged recorder are *exactly* the
        percentiles of the concatenated sample sets — this is the
        reference the compact :class:`LatencyDigest` merge is tested
        against."""
        self.samples.extend(other.samples)
        self._sorted = None
        return self


#: Log-bucket resolution: buckets per octave (power of two).  16 per
#: octave bounds any bucket's relative width — and therefore any digest
#: percentile's relative error — to 2**(1/16) - 1 < 4.5%.
DIGEST_BUCKETS_PER_OCTAVE = 16

_DIGEST_GAMMA = 2.0 ** (1.0 / DIGEST_BUCKETS_PER_OCTAVE)
_DIGEST_LOG_GAMMA = math.log(_DIGEST_GAMMA)


class DigestError(ValueError):
    """A :class:`LatencyDigest` operation on unusable input (e.g.
    percentile of an empty digest)."""


class DigestMergeError(DigestError):
    """Merging digests whose bucket bases differ: bucket indices of one
    digest mean different latencies in the other, so adding counts
    would silently corrupt percentiles."""


class LatencyDigest:
    """Compact mergeable latency histogram (log-spaced buckets).

    Workers ship digests instead of raw samples: a digest is a sparse
    ``bucket index -> count`` map plus exact count/sum/min/max, so a
    million-sample tail costs a few hundred integers on the wire.
    Merging digests is bucket-count addition, which makes the merge
    associative and order-independent — the fleet's per-server shards
    combine into one view whose percentiles match the single-process
    percentiles to within one bucket's relative width
    (< ``2**(1/DIGEST_BUCKETS_PER_OCTAVE) - 1``, about 4.4%).
    """

    __slots__ = ("buckets", "count", "sum", "min", "max",
                 "buckets_per_octave", "_log_gamma")

    def __init__(self, buckets_per_octave: int = DIGEST_BUCKETS_PER_OCTAVE):
        if buckets_per_octave < 1:
            raise DigestError(
                f"buckets_per_octave must be >= 1, got {buckets_per_octave}")
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets_per_octave = buckets_per_octave
        self._log_gamma = (_DIGEST_LOG_GAMMA
                           if buckets_per_octave == DIGEST_BUCKETS_PER_OCTAVE
                           else math.log(2.0) / buckets_per_octave)

    def _bucket_of(self, value_ns: int) -> int:
        if value_ns <= 1:
            return 0
        return int(math.log(value_ns) / self._log_gamma) + 1

    def _bucket_value(self, index: int) -> int:
        if index <= 0:
            return 1
        return int(round(math.exp(self._log_gamma * (index - 0.5))))

    def record(self, latency_ns: int, n: int = 1) -> None:
        """Record ``latency_ns``; ``n > 1`` records it with weight ``n``
        (how adaptive packet trains apportion one coalesced
        measurement across the requests it represents)."""
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        if n < 1:
            raise ValueError(f"weight must be >= 1, got {n}")
        index = self._bucket_of(latency_ns)
        self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += n
        self.sum += latency_ns * n
        if self.min is None or latency_ns < self.min:
            self.min = latency_ns
        if self.max is None or latency_ns > self.max:
            self.max = latency_ns

    def __len__(self) -> int:
        return self.count

    @classmethod
    def from_recorder(cls, recorder: LatencyRecorder) -> "LatencyDigest":
        digest = cls()
        for sample in recorder.samples:
            digest.record(sample)
        return digest

    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        """Fold ``other`` into this digest (bucket-count addition).

        Raises :class:`DigestMergeError` when the digests use different
        bucket bases — their indices are not comparable."""
        if other.buckets_per_octave != self.buckets_per_octave:
            raise DigestMergeError(
                f"cannot merge digests with different bucket bases: "
                f"{self.buckets_per_octave} vs "
                f"{other.buckets_per_octave} buckets/octave")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = (other.min if self.min is None
                        else min(self.min, other.min))
        if other.max is not None:
            self.max = (other.max if self.max is None
                        else max(self.max, other.max))
        return self

    def average(self) -> float:
        if not self.count:
            raise ValueError("no samples recorded")
        return self.sum / self.count

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile, p in [0, 100]; exact at the extremes
        (min/max are tracked exactly) and whenever every sample landed
        in one bucket (interpolated between the exact min and max
        instead of reporting the bucket's representative value, which
        could exceed both), within one bucket width elsewhere."""
        if not self.count:
            raise DigestError("no samples recorded")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        rank = max(1, math.ceil(p / 100 * self.count))
        if rank >= self.count:
            return self.max
        if rank <= 1:
            return self.min
        if len(self.buckets) == 1:
            # All mass in one bucket: min/max bound it exactly, so
            # interpolate by rank instead of answering the bucket's
            # geometric midpoint (which p50 of near-identical samples
            # used to overshoot).
            span = self.max - self.min
            return self.min + round(span * (rank - 1) / (self.count - 1))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return max(self.min, min(self.max,
                                         self._bucket_value(index)))
        return self.max  # unreachable: counts sum to self.count

    # ----------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """Plain-JSON form (sparse buckets keyed by str for JSON).  The
        bucket base rides along only when non-default, so existing
        serialized digests (and fingerprints over them) are unchanged."""
        data = {
            "buckets": {str(k): v
                        for k, v in sorted(self.buckets.items())},
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        if self.buckets_per_octave != DIGEST_BUCKETS_PER_OCTAVE:
            data["bpo"] = self.buckets_per_octave
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "LatencyDigest":
        digest = cls(int(data.get("bpo", DIGEST_BUCKETS_PER_OCTAVE)))
        digest.buckets = {int(k): int(v)
                          for k, v in data["buckets"].items()}
        digest.count = int(data["count"])
        digest.sum = int(data["sum"])
        digest.min = None if data["min"] is None else int(data["min"])
        digest.max = None if data["max"] is None else int(data["max"])
        if sum(digest.buckets.values()) != digest.count:
            raise DigestError("digest bucket counts do not sum to count")
        return digest


@dataclass
class TimeSeries:
    """(time, value) samples — e.g. Fig 14's per-PF throughput curves."""

    name: str
    times_ns: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def sample(self, time_ns: int, value: float) -> None:
        self.times_ns.append(time_ns)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def value_at(self, time_ns: int) -> float:
        """Value of the latest sample at or before ``time_ns``.

        Samples arrive in sim-time order, so ``times_ns`` is sorted and a
        bisect replaces the former linear scan.
        """
        i = bisect_right(self.times_ns, time_ns) - 1
        if i < 0:
            raise ValueError(f"no sample at or before {time_ns}")
        return self.values[i]

    def _slice(self, t_from: int, t_to: Optional[int]) -> List[float]:
        lo = bisect_left(self.times_ns, t_from)
        hi = (len(self.times_ns) if t_to is None
              else bisect_right(self.times_ns, t_to))
        picked = self.values[lo:hi]
        if not picked:
            raise ValueError("no samples in range")
        return picked

    def mean(self, t_from: int = 0, t_to: Optional[int] = None) -> float:
        picked = self._slice(t_from, t_to)
        return sum(picked) / len(picked)

    def min(self, t_from: int = 0, t_to: Optional[int] = None) -> float:
        """Smallest sample in [t_from, t_to] — e.g. a failover dip."""
        return min(self._slice(t_from, t_to))

    def max(self, t_from: int = 0, t_to: Optional[int] = None) -> float:
        return max(self._slice(t_from, t_to))


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Plain-text table in the style of the paper's figure captions."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.2f}" if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w)
                               for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)

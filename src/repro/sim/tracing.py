"""Lightweight event tracing: instants and flows.

A :class:`Tracer` collects :class:`TraceRecord` entries.  Tracing is off
by default and costs one predicate check per emit when disabled, so hot
paths can trace unconditionally.  Two record shapes exist:

* **instant** (``phase="i"``) — a point event, the shape every
  component emits (``pf_down``, ``failover.begin``, ...).
* **flow step** (``phase="X"``) — a span of ``dur`` ns that carries a
  ``flow_id``: one stage of a packet or IO's journey through the
  machine.  Steps of one flow are connected by Perfetto/Chrome flow
  arrows (``s``/``t``/``f`` events), so a single packet can be followed
  wire → PF → DMA → LLC → app across component tracks.

Flows are built through :meth:`Tracer.begin_flow`, which returns a
:class:`TraceFlow` holding a **time cursor**: each :meth:`TraceFlow.step`
emits a span at the cursor and advances it by the step's duration, so a
critical path renders as a staircase of connected slices.  At most one
flow is active at a time (``Tracer.active_flow``); shared code like the
doorbell/completion paths contributes steps to whatever flow its caller
opened, which is how the NIC and NVMe stacks get flow tracing from the
same lines of code.

Collected traces export as Chrome trace-event JSON
(:meth:`Tracer.to_chrome_trace`) for ``chrome://tracing`` or
https://ui.perfetto.dev; metric time series can ride along as counter
tracks.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: int
    source: str
    event: str
    payload: Any = None
    #: Chrome phase: "i" instant, "X" complete span.
    phase: str = "i"
    #: Span duration in ns (phase "X" only).
    dur: int = 0
    #: Flow membership: id shared by every step of one packet/IO journey.
    flow_id: Optional[int] = None
    #: "s" first step, "t" intermediate, "f" final step of the flow.
    flow_phase: Optional[str] = None

    def __str__(self) -> str:
        extra = f" {self.payload}" if self.payload is not None else ""
        if self.phase == "X":
            extra = f" (+{self.dur} ns){extra}"
        return f"[{self.time:>12} ns] {self.source}: {self.event}{extra}"


class TraceFlow:
    """One packet/IO journey: connected spans with a running time cursor.

    Besides the Perfetto staircase, a flow can accumulate **blame**: each
    step may name the latency *stage* it belongs to (``stage=``) and the
    nanoseconds that stage is answerable for (``blame_ns=``, defaulting
    to ``dur``), or pass a whole ``stages={name: ns}`` decomposition when
    one hop covers several stages.  Blame differs from the staircase
    duration wherever the model overlaps work (e.g. the NIC pipeline
    runs wire transit and DMA concurrently): stages carry the
    *overlap-residual* charges so that their sum equals the latency the
    model actually returned.  :meth:`seal` hands the accumulated stages
    to the tracer's blame collector together with that end-to-end total,
    which is where the stage-sum == end-to-end conservation check lives.

    Flows with ``record=False`` are *blame-only*: they accumulate stages
    and participate in ``active_flow`` plumbing but emit no
    :class:`TraceRecord`, so throughput paths can attribute latency
    without perturbing traces, fingerprints, or memory.
    """

    __slots__ = ("tracer", "flow_id", "cursor", "steps", "record",
                 "stages")

    def __init__(self, tracer: "Tracer", flow_id: int, start_ns: int,
                 record: bool = True):
        self.tracer = tracer
        self.flow_id = flow_id
        self.cursor = int(start_ns)
        self.steps = 0
        self.record = record
        self.stages: Optional[Dict[str, int]] = None

    def _charge(self, stage: Optional[str], blame_ns: Optional[int],
                dur: int, stages: Optional[Dict[str, int]]) -> None:
        acc = self.stages
        if acc is None:
            acc = self.stages = {}
        if stages is not None:
            for name, ns in stages.items():
                ns = int(ns)
                if ns > 0:
                    acc[name] = acc.get(name, 0) + ns
        elif stage is not None:
            ns = dur if blame_ns is None else int(blame_ns)
            if ns > 0:
                acc[stage] = acc.get(stage, 0) + ns

    def step(self, source: str, event: str, dur: int = 0,
             payload: Any = None, *, stage: Optional[str] = None,
             blame_ns: Optional[int] = None,
             stages: Optional[Dict[str, int]] = None) -> None:
        """Emit one stage of the journey at the cursor; advance it by
        ``dur`` so the next stage starts where this one ended."""
        dur = int(dur)
        if dur < 0:
            dur = 0
        if self.record:
            phase = "s" if self.steps == 0 else "t"
            self.tracer.records.append(TraceRecord(
                self.cursor, source, event, payload, "X", dur,
                self.flow_id, phase))
        self.steps += 1
        self.cursor += dur
        if self.tracer.blame is not None:
            self._charge(stage, blame_ns, dur, stages)

    def finish(self, source: str, event: str, dur: int = 0,
               payload: Any = None, *, stage: Optional[str] = None,
               blame_ns: Optional[int] = None,
               stages: Optional[Dict[str, int]] = None) -> None:
        """Emit the terminal stage and close the flow."""
        dur = int(dur)
        if dur < 0:
            dur = 0
        if self.record:
            self.tracer.records.append(TraceRecord(
                self.cursor, source, event, payload, "X", dur,
                self.flow_id, "f"))
        self.steps += 1
        self.cursor += dur
        if self.tracer.blame is not None:
            self._charge(stage, blame_ns, dur, stages)
        if self.tracer.active_flow is self:
            self.tracer.active_flow = None

    def charge(self, stage: str, ns: int) -> None:
        """Charge ``ns`` to ``stage`` without emitting a span — how the
        burst paths attribute CPU costs that have no trace step."""
        if self.tracer.blame is None:
            return
        ns = int(ns)
        if ns <= 0:
            return
        acc = self.stages
        if acc is None:
            acc = self.stages = {}
        acc[stage] = acc.get(stage, 0) + ns

    def seal(self, total_ns: int, represented: int = 1,
             domain: str = "flow") -> None:
        """Close the flow for blame purposes: report the accumulated
        stage charges against the end-to-end total the caller actually
        returned.  ``represented`` is how many base units (bursts,
        requests) this flow stands for — packet trains
        seal once per train with ``represented=k`` and the collector
        apportions stage time across them.  Safe to call after
        :meth:`finish`; a no-op when no blame collector is attached."""
        if self.tracer.active_flow is self:
            self.tracer.active_flow = None
        blame = self.tracer.blame
        if blame is not None:
            blame.add(self.stages or {}, int(total_ns),
                      represented=represented, domain=domain)


@dataclass
class Tracer:
    """Collects trace records."""

    enabled: bool = False
    records: List[TraceRecord] = field(default_factory=list)
    #: Flow tracing is opt-in on top of ``enabled``: several experiments
    #: and tests flip ``enabled`` for instant events and must not start
    #: collecting per-packet staircases as a side effect.
    flows: bool = False
    #: Cap on *recorded* flows per tracer: latency loops open one flow
    #: per message, and an unbounded run would otherwise collect
    #: millions of spans.  Rather than keeping the first ``flow_limit``
    #: flows (which biases traces towards warm-up), the tracer stride-
    #: samples: when the cap is hit the stride doubles (keeping every
    #: 2nd, 4th, ... candidate, offset seeded from the sim clock) and
    #: already-collected flows outside the new stride are evicted, so a
    #: long run ends with <= ``flow_limit`` flows spread across its
    #: whole duration.  Runs that never hit the cap record exactly the
    #: flows (and ids) they always did — exact-mode traces stay
    #: bit-identical.
    flow_limit: int = 1000
    #: The flow currently being built (shared paths contribute steps to
    #: it); None outside an open flow.
    active_flow: Optional[TraceFlow] = None
    #: Latency-blame collector (:class:`repro.obs.blame.BlameCollector`
    #: or None).  When attached, ``begin_flow`` opens blame-only flows
    #: even past the flow cap / with ``flows`` off, and sealed flows
    #: report their per-stage charges to it.
    blame: Optional[Any] = None
    #: Burst-path blame sampling: :meth:`begin_blame` admits one call in
    #: ``blame_stride``.  Throughput loops open one blame flow per burst
    #: and bursts are statistically exchangeable, so sampling keeps the
    #: per-stage digests and shares unbiased while bounding attribution
    #: cost (the obs-overhead ceiling gates blame-enabled runs at the
    #: same 2% as the rest of the stack).  Latency paths open their
    #: flows through :meth:`begin_flow`, which never samples — every
    #: request's decomposition is charged and conservation-checked.
    blame_stride: int = 64
    #: Flow candidates seen (every ``begin_flow`` call) — doubles as the
    #: next flow id, so ids equal candidate indices.
    _flow_seen: int = 0
    #: ``begin_blame`` candidates seen (separate counter so the sampling
    #: phase is independent of interleaved ``begin_flow`` traffic).
    _blame_seen: int = 0
    _flow_stride: int = 1
    _flow_offset: int = 0
    #: Ids of currently recorded flows (survivors of stride eviction).
    _flow_ids: List[int] = field(default_factory=list)

    # ------------------------------------------------------------- emit

    def emit(self, time: int, source: str, event: str,
             payload: Any = None) -> None:
        if not self.enabled:
            return
        self.records.append(TraceRecord(time, source, event, payload))

    def begin_flow(self, start_ns: int) -> Optional[TraceFlow]:
        """Open a flow at ``start_ns`` and make it the active flow.

        Returns None when neither flow tracing nor blame collection
        wants the flow — callers guard their step/finish calls on the
        returned handle, while shared paths consult :attr:`active_flow`.
        With a blame collector attached, flows past the recording cap
        (or with ``flows`` off entirely) come back *blame-only*
        (``record=False``): they accumulate stage charges but emit no
        trace records.
        """
        if not self.enabled:
            return None
        index = self._flow_seen
        self._flow_seen = index + 1
        record = False
        if self.flows:
            record = self._admit_flow(index, start_ns)
        if not record and self.blame is None:
            return None
        flow = TraceFlow(self, index, start_ns, record=record)
        self.active_flow = flow
        return flow

    def begin_blame(self, start_ns: int) -> Optional[TraceFlow]:
        """Open a blame-only flow (no trace records, ever) — what the
        throughput/burst paths use so stage attribution works without
        flow tracing and without perturbing recorded traces.  Returns
        None unless a blame collector is attached, and only for one
        call in :attr:`blame_stride` (deterministic burst sampling)."""
        if self.blame is None or not self.enabled:
            return None
        index = self._blame_seen
        self._blame_seen = index + 1
        if self.blame_stride > 1 and index % self.blame_stride:
            return None
        flow = TraceFlow(self, self._flow_seen, start_ns, record=False)
        self._flow_seen += 1
        self.active_flow = flow
        return flow

    # ------------------------------------------------- flow admission

    def _admit_flow(self, index: int, start_ns: int) -> bool:
        """Deterministic stride sampling: admit candidate ``index`` iff
        it lies on the current stride lattice; double the stride (and
        evict off-lattice survivors) whenever the cap is reached."""
        if self.flow_limit <= 0:
            return False
        if (index - self._flow_offset) % self._flow_stride:
            return False
        if len(self._flow_ids) >= self.flow_limit:
            self._double_stride(start_ns)
            if (index - self._flow_offset) % self._flow_stride:
                return False
        self._flow_ids.append(index)
        return True

    def _double_stride(self, start_ns: int) -> None:
        """Halve the kept-flow density.  The surviving parity class is
        seeded from the sim clock at overflow time — deterministic for a
        given run, but not systematically biased towards even candidate
        indices.  The new offset stays congruent to the old one modulo
        the old stride, so survivors remain a subset of what was already
        collected and no recorded flow is ever half-evicted."""
        seed = int(start_ns)
        while (len(self._flow_ids) >= self.flow_limit
               and self._flow_stride < (1 << 60)):
            bit = (seed >> (self._flow_stride.bit_length() - 1)) & 1
            self._flow_offset += bit * self._flow_stride
            self._flow_stride *= 2
            self._flow_ids = [
                i for i in self._flow_ids
                if (i - self._flow_offset) % self._flow_stride == 0]
        kept = set(self._flow_ids)
        self.records = [r for r in self.records
                        if r.flow_id is None or r.flow_id in kept]

    # ----------------------------------------------------------- queries

    def counts(self) -> Dict[str, int]:
        return Counter(record.event for record in self.records)

    # ------------------------------------------------------------ export

    @staticmethod
    def _args_of(record: TraceRecord) -> Optional[dict]:
        if record.payload is None:
            return None
        if isinstance(record.payload, dict):
            # Structured payloads become structured Perfetto args.
            return dict(record.payload)
        return {"payload": str(record.payload)}

    def to_chrome_trace(
            self, process_name: str = "repro",
            counters: Optional[Dict[str, Sequence[Tuple[int, float]]]] = None,
            ) -> str:
        """The collected records as Chrome trace-event JSON.

        Each source becomes one thread row; instants stay point events,
        spans become "X" slices, and flow steps additionally emit
        ``s``/``t``/``f`` arrow events binding the slices of one packet's
        journey together.  ``counters`` (name -> [(time_ns, value), ...])
        render as Perfetto counter tracks.  Load the string in
        ``chrome://tracing`` or https://ui.perfetto.dev.  Timestamps are
        microseconds in that format, so sim nanoseconds map to fractional
        ``ts`` values.
        """
        sources = sorted({record.source for record in self.records})
        tids = {source: tid for tid, source in enumerate(sources)}
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": process_name},
        }]
        for source, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 0,
                           "tid": tid, "args": {"name": source}})
        for record in self.records:
            event = {
                "name": record.event,
                "pid": 0,
                "tid": tids[record.source],
                "ts": record.time / 1000,
                "cat": record.event.split(".")[0],
            }
            if record.phase == "X":
                event["ph"] = "X"
                event["dur"] = record.dur / 1000
            else:
                event["ph"] = "i"
                event["s"] = "t"    # thread-scoped instant
            args = self._args_of(record)
            if args is not None:
                event["args"] = args
            events.append(event)
            if record.flow_id is not None and record.flow_phase:
                # Arrow events bind to the slice enclosing their ts on
                # the same thread; "f" needs bp=e to attach to the
                # slice it ends in rather than the next one.
                arrow = {
                    "name": "flow",
                    "cat": "flow",
                    "ph": record.flow_phase,
                    "id": record.flow_id,
                    "pid": 0,
                    "tid": tids[record.source],
                    "ts": record.time / 1000,
                }
                if record.flow_phase == "f":
                    arrow["bp"] = "e"
                events.append(arrow)
        for name, series in (counters or {}).items():
            for time_ns, value in series:
                events.append({
                    "name": name, "ph": "C", "pid": 0,
                    "ts": time_ns / 1000,
                    "args": {"value": value},
                })
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ns"})


#: Shared no-op tracer used when a component is built without one.
NULL_TRACER = Tracer(enabled=False)

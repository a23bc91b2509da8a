"""One burst loop for every workload of identical bursts, and the
governors that size its packet trains.

pktgen and netperf TCP_STREAM are loops of identical bursts.
:func:`burst_loop` runs that loop; each workload supplies a ``burst(k)``
callable that charges k identical back-to-back bursts through the model
layer and returns ``(cpu_ns, dev_ns)``, its bytes and messages per
burst, a steady-state token and its bursts until the descriptor ring
wraps.

A workload built without a governor runs the k = 1 case: one event per
burst, every burst re-walks wire -> NIC ring -> DMA/LLC -> netstack and
the meter covers exactly the measurement window.

A workload given a :class:`TrainGovernor` lets the governor watch the
*steady-state token* — a fingerprint of every decision a burst depends
on (core, queues, serving PF and its liveness, the firmware steering
epoch, interrupt-moderation budget, wire impairment) — and, while the
token holds and the per-burst wall time is stable, coalesce K
back-to-back bursts into a single *train* event.  The model
layer is closed-form in the batch size (every ``*_burst``/``tx``/
``rx_deliver`` call takes an ``npackets``/``nmessages`` count and the
bandwidth/DRAM/interconnect servers are linear in bytes), so a train is
simply the same calls with K-scaled counts: it charges the same
aggregate wire bandwidth, PCIe TLP routing, DDIO/LLC allocation and
ring/descriptor accounting the K individual bursts would have, while the
event kernel dispatches one event instead of K.

The governor owns train sizing: :meth:`TrainGovernor.plan_train` applies
the burst cap, the per-train byte budget, the ring-wrap rule and the
clip at warmup, at duration and at the wall cap in one call, so a train
never crosses a queue wrap, overruns the DDIO slice or spans a
measurement boundary.  De-coalescing is automatic: any token change
(ARFS migration, PF failover, impairment episode, moderation budget
shift, etc.) resets the train length to one burst.  memcached keeps its
own per-transaction loop (it rotates sockets, paces offered load and
averages its meter across workers) and never coalesces.
"""

from __future__ import annotations

from typing import Optional

#: Hard cap on bursts per train (grows geometrically 2, 4, ... up to this).
MAX_TRAIN_BURSTS = 32
#: Hard cap on a single train's wall time.  This bounds both the latency
#: of reacting to an injected fault (a fault lands mid-train at most this
#: late) and the record-ahead quantisation of the throughput meters.
MAX_TRAIN_WALL_NS = 250_000
#: Hard cap on a single train's payload bytes.  A fixed constant, below
#: both presets' DDIO LLC slices (10% of the LLC: 3.5 MB on the R730,
#: 3.3 MB on the Skylake host); no run checks it against the slice.
MAX_TRAIN_BYTES = 2 * 1024 * 1024
#: Consecutive stable per-burst wall observations required before a train
#: may grow.
SETTLE_OBSERVATIONS = 2
#: Relative tolerance for "the per-burst wall time is stable".
STABLE_REL_TOL = 0.02


class TrainGovernor:
    """Decides how many back-to-back bursts the next event may coalesce.

    Protocol, once per workload loop iteration::

        k = governor.plan_train(token, now, warmup, duration, ...)
        ... run the k-burst train through the model layer ...
        governor.observe(wall_ns, k)    # feed back the train's wall time

    :meth:`plan` returns 1 until the token has been steady and the
    observed per-burst wall time stable for :data:`SETTLE_OBSERVATIONS`
    rounds, then grows the train geometrically up to ``max_bursts``.
    Any token change de-coalesces (K returns to 1 immediately).
    """

    def __init__(self, max_bursts: int = MAX_TRAIN_BURSTS):
        if max_bursts < 1:
            raise ValueError(f"max_bursts must be >= 1, got {max_bursts}")
        self.max_bursts = max_bursts
        self._token = None
        self._streak = 0
        self._next_k = 1
        self._per_burst_wall: Optional[float] = None
        # -- counters (tests read these) --
        self.trains = 0
        self.coalesced_bursts = 0
        self.decoalesce_events = 0
        self.max_bursts_seen = 1

    # ----------------------------------------------------------- protocol

    def plan_train(self, token, now_ns: int, warmup_ns: int,
                   duration_ns: int, burst_bytes: int = 0,
                   bursts_until_wrap=None) -> int:
        """Size the next train under ``token`` and :meth:`plan` it.

        The train stays within ``max_bursts``, within the per-train byte
        budget at ``burst_bytes`` a burst, short of the descriptor-ring
        wrap (``bursts_until_wrap()``) and — by the learned per-burst
        wall — short of the next of warmup and duration and within the
        wall cap.  Before any observation the train is one burst anyway,
        so no clipping is needed then.
        """
        cap = self.max_bursts
        if burst_bytes:
            cap = min(cap, max(1, MAX_TRAIN_BYTES // burst_bytes))
        if bursts_until_wrap is not None:
            cap = min(cap, max(1, bursts_until_wrap()))
        estimate = self._per_burst_wall
        if estimate:
            cap = min(cap, max(1, int(MAX_TRAIN_WALL_NS / estimate)))
            for boundary in (warmup_ns, duration_ns):
                if now_ns < boundary:
                    cap = min(cap, max(1, int((boundary - now_ns)
                                              / estimate)))
                    break
        return self.plan(token, cap)

    def plan(self, token, cap: int) -> int:
        """Bursts the next train may coalesce under ``token``.

        ``cap`` (at least 1) is the per-train ceiling for *this*
        iteration (see :meth:`plan_train`); it limits the train without
        resetting the learned steady state.
        """
        if token != self._token:
            if self._token is not None:
                self.decoalesce_events += 1
            self._token = token
            self._streak = 0
            self._next_k = 1
            self._per_burst_wall = None
        k = self._next_k if self._streak >= SETTLE_OBSERVATIONS else 1
        if k > cap:
            k = cap
        self.trains += 1
        self.coalesced_bursts += k
        if k > self.max_bursts_seen:
            self.max_bursts_seen = k
        return k

    def observe(self, wall_ns: int, k: int) -> None:
        """Feed back the wall time of the train ``plan`` sized as ``k``."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        per_burst = wall_ns / k
        previous = self._per_burst_wall
        self._per_burst_wall = per_burst
        if (previous is None
                or abs(per_burst - previous) > STABLE_REL_TOL * previous):
            # Unstable (or first look at this token): hold at one burst.
            self._streak = 0
            self._next_k = 1
            return
        self._streak += 1
        if self._streak >= SETTLE_OBSERVATIONS:
            # Steady: grow the train geometrically.
            self._next_k = min(self._next_k * 2, self.max_bursts)


def burst_loop(workload, thread, burst, burst_bytes: int,
               burst_messages: int, token, bursts_until_wrap):
    """Run ``workload``'s steady burst loop on ``thread`` until its
    duration (a generator for the thread body to ``yield from``).

    ``burst(k)`` charges k identical back-to-back bursts of
    ``burst_bytes`` and ``burst_messages`` each and returns ``(cpu_ns,
    dev_ns)``; ``token()`` and ``bursts_until_wrap()`` feed the
    governor.  The workload provides ``env``, ``meter``, ``governor``,
    ``warmup_ns`` and ``duration_ns``.

    With no governor the loop runs ``burst(1)`` per event, and charges
    the core and sleeps as ``thread.overlap`` would, inline.  A governor
    sizes each train, and the meter is aligned progressively: a train's
    bytes are recorded at its start, so the meter runs from the first
    train's start to the projected end of the last (the convergence
    loop may stop the run mid-train, and the first post-warmup train may
    start a little after warmup).
    """
    env = workload.env
    meter = workload.meter
    warmup_ns = workload.warmup_ns
    duration_ns = workload.duration_ns
    governor = workload.governor
    while env._now < duration_ns:
        # Nothing in an iteration before its yield advances the clock,
        # and the loop test already holds now < duration_ns.
        now = env._now
        if governor is None:
            cpu, dev = burst(1)
            if warmup_ns <= now:
                meter.record(burst_bytes, burst_messages)
            # thread.overlap(cpu, dev), inline: charge the core the CPU
            # part (core.charge raises for a negative one) and sleep the
            # slower of the two.
            cpu = int(cpu)
            core = thread.core
            if cpu < 0:
                core.charge(cpu)
            core._busy_ns += cpu
            dev = int(dev)
            yield dev if dev > cpu else cpu
            continue
        k = governor.plan_train(token(), now, warmup_ns, duration_ns,
                                burst_bytes=burst_bytes,
                                bursts_until_wrap=bursts_until_wrap)
        cpu, dev = burst(k)
        wall = max(cpu, dev)
        if warmup_ns <= now:
            if meter.messages_total == 0:
                meter.start_ns = now
            meter.record(k * burst_bytes, k * burst_messages)
            meter.finish(min(now + wall, duration_ns))
        governor.observe(wall, k)
        yield thread.overlap(cpu, dev)
    meter.finish(min(env._now, duration_ns))

"""One burst loop for every accuracy tier, and the governors that size
its packet trains.

pktgen and netperf TCP_STREAM are loops of identical bursts.
:func:`burst_loop` runs that loop for every tier; each workload supplies
a ``burst(k)`` callable that charges k identical back-to-back bursts
through the model layer and returns ``(cpu_ns, dev_ns)``, its bytes and
messages per burst, a steady-state token and its bursts until the
descriptor ring wraps.

``exact`` accuracy is the k = 1 case: one event per burst, every burst
re-walks wire -> NIC ring -> DMA/LLC -> netstack, the loop makes no
governor call and the meter covers exactly the measurement window.

In ``adaptive`` mode the :class:`TrainGovernor` watches the
*steady-state token* — a fingerprint of every decision a burst depends
on (core, queues, serving PF and its liveness, the firmware steering
epoch, interrupt-moderation budget, wire impairment) — and, while the
token holds and the per-burst wall time is stable, lets the loop
coalesce K back-to-back bursts into a single *train* event.  The model
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
own loop (it rotates sockets, plans SET/GET runs, paces offered load
and averages its meter across workers) but sizes its runs through the
same call.

``fluid`` accuracy extends trains to whole *steady intervals* via
:class:`FluidGovernor`: once settled, the train length jumps straight to
the cap (no geometric ramp), the per-train byte budget is lifted (the
memory layer charges DDIO absorption per burst in closed form, so a
giant interval cannot spill where exact would not — see
``MemorySystem.dma_write(nbursts=)``), intervals may span ring wraps
(the exact model attaches no cost to a wrap; doorbells, completions and
interrupts stay per-burst), and the wall cap scales with the measurement
window instead of a fixed 250 us.  The steady token is additionally
extended with the environment-wide rate epoch through the
:class:`~repro.sim.fluid.FluidRegion` coordinator, so *any*
``BandwidthServer.set_rate`` (fault throttle, link retraining) ends
every in-flight steady interval at its next planning point.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

from repro.sim.fluid import FluidRegion, fluid_region

#: Hard cap on bursts per train (grows geometrically 2, 4, ... up to this).
MAX_TRAIN_BURSTS = 32
#: Hard cap on a single train's wall time.  This bounds both the latency
#: of reacting to an injected fault (a fault lands mid-train at most this
#: late) and the record-ahead quantisation of the throughput meters.
MAX_TRAIN_WALL_NS = 250_000
#: Hard cap on a single train's payload bytes (kept below the ~3.5 MB
#: DDIO LLC slice; see MemorySystem.ddio_slice_bytes).
MAX_TRAIN_BYTES = 2 * 1024 * 1024
#: Consecutive stable per-burst wall observations required before a train
#: may grow.
SETTLE_OBSERVATIONS = 2
#: Relative tolerance for "the per-burst wall time is stable".
STABLE_REL_TOL = 0.02

#: Fluid tier: hard safety cap on bursts per steady interval (the real
#: bind is the window-scaled wall cap from FluidRegion.wall_cap_ns).
FLUID_MAX_TRAIN_BURSTS = 4096
#: Fluid tier: only flows whose per-burst wall time is below this are
#: coalesced into steady intervals.  A burst within a few RateEstimator
#: sampling buckets (20 us each) blends into the rolling utilization
#: estimate much like its average rate would, so replacing a run of
#: such bursts with a closed-form steady interval is faithful — while
#: coalescing much coarser bursts (e.g. a 300 us memcached
#: transaction) erases burst-phase contention the exact schedule
#: really exhibits, for little event savings (the events are already
#: coarse, so per-event overhead is not what limits those runs).
FLUID_COALESCE_WALL_NS = 100_000
#: Fluid tier: per-interval byte budget.  Far above the DDIO slice on
#: purpose — the batched memory path preserves per-burst absorption, so
#: the 2 MB adaptive cap is unnecessary; this only bounds integer sizes.
FLUID_MAX_TRAIN_BYTES = 256 * 1024 * 1024


class TrainGovernor:
    """Decides how many back-to-back bursts the next event may coalesce.

    Protocol, once per workload loop iteration::

        k = governor.plan_train(token, now, warmup, duration, ...)
        with governor.interval(k):
            ... run the k-burst train through the model layer ...
        governor.observe(wall_ns, k)    # feed back the train's wall time

    :meth:`plan` returns 1 until the token has been steady and the
    observed per-burst wall time stable for :data:`SETTLE_OBSERVATIONS`
    rounds, then grows the train geometrically up to ``max_bursts``.
    Any token change de-coalesces (K returns to 1 immediately).
    """

    #: Per-train byte budget a train's bursts must fit in.
    _max_train_bytes = MAX_TRAIN_BYTES
    #: Whether a train may span descriptor-ring wraps.
    _cross_ring_wraps = False

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
                   duration_ns: int, cap: Optional[int] = None,
                   burst_bytes: int = 0, bursts_until_wrap=None) -> int:
        """Size the next train under ``token`` and :meth:`plan` it.

        The train stays within ``cap`` (default ``max_bursts``), within
        the per-train byte budget at ``burst_bytes`` a burst, short of
        the descriptor-ring wrap (``bursts_until_wrap()``, unless this
        governor crosses wraps) and — by the learned per-burst wall —
        short of the next of warmup and duration and within the wall
        cap.  Before any observation the train is one burst anyway, so
        no clipping is needed then.
        """
        if cap is None:
            cap = self.max_bursts
        if burst_bytes:
            cap = min(cap, max(1, self._max_train_bytes // burst_bytes))
        if bursts_until_wrap is not None and not self._cross_ring_wraps:
            cap = min(cap, max(1, bursts_until_wrap()))
        estimate = self._per_burst_wall
        if estimate:
            wall_cap = self._wall_cap_ns(warmup_ns, duration_ns)
            cap = min(cap, max(1, int(wall_cap / estimate)))
            for boundary in (warmup_ns, duration_ns):
                if now_ns < boundary:
                    cap = min(cap, max(1, int((boundary - now_ns)
                                              / estimate)))
                    break
        return self.plan(token, cap)

    def plan(self, token, cap: Optional[int] = None) -> int:
        """Bursts the next train may coalesce under ``token``.

        ``cap`` is the per-train ceiling for *this* iteration (see
        :meth:`plan_train`); it limits the train without resetting the
        learned steady state.
        """
        if token != self._token:
            if self._token is not None:
                self.decoalesce_events += 1
            self._token = token
            self._streak = 0
            self._next_k = 1
            self._per_burst_wall = None
        k = self._next_k if self._streak >= SETTLE_OBSERVATIONS else 1
        if cap is not None and k > cap:
            k = cap if cap >= 1 else 1
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
            self._next_k = self._grown_k()

    def _grown_k(self) -> int:
        """Next train length once steady: geometric ramp (adaptive)."""
        return min(self._next_k * 2, self.max_bursts)

    def interval(self, k: int):
        """Context manager wrapping the charges of a k-burst train.

        The adaptive tier charges trains at an instant (they are capped
        at 250 us of wall time, small enough that the transient is in
        the noise), so this is a no-op; :class:`FluidGovernor` overrides
        it to publish the interval's span to the environment."""
        return nullcontext()

    def _wall_cap_ns(self, warmup_ns: int, duration_ns: int) -> int:
        """Longest wall time one train may cover."""
        return MAX_TRAIN_WALL_NS


class FluidGovernor(TrainGovernor):
    """Steady-interval planner for ``fluid`` accuracy.

    Same protocol as :class:`TrainGovernor`, with four policy changes:

    * the steady token is extended with the environment-wide rate epoch
      (via :class:`~repro.sim.fluid.FluidRegion`), so any
      ``BandwidthServer.set_rate`` de-coalesces every fluid flow;
    * once the per-burst wall has settled, the interval length jumps
      straight to the cap instead of ramping geometrically;
    * intervals may span ring wraps and carry up to
      :data:`FLUID_MAX_TRAIN_BYTES` (per-burst DDIO/PCIe charging in the
      model layer keeps giant intervals faithful);
    * the wall cap is ``1/8`` of the measurement window, bounded by an
      absolute ceiling (:meth:`FluidRegion.wall_cap_ns`), instead of a
      fixed 250 us, so convergence sampling and fault-observation lag
      stay bounded relative to the run.
    """

    _max_train_bytes = FLUID_MAX_TRAIN_BYTES
    _cross_ring_wraps = True

    def __init__(self, region: FluidRegion):
        super().__init__(FLUID_MAX_TRAIN_BURSTS)
        self.region = region
        region.register()

    def plan(self, token, cap: Optional[int] = None) -> int:
        before = self.decoalesce_events
        k = super().plan(self.region.token(token), cap)
        if self.decoalesce_events > before:
            self.region.invalidated()
        if k > 1:
            self.region.grant(k)
        return k

    def _grown_k(self) -> int:
        """Closed-form service needs no ramp: jump straight to the cap
        (plan() still clips per iteration) — but only for fine-grained
        flows (see :data:`FLUID_COALESCE_WALL_NS`)."""
        if (self._per_burst_wall is not None
                and self._per_burst_wall > FLUID_COALESCE_WALL_NS):
            return 1
        return self.max_bursts

    def interval(self, k: int):
        """Publish the steady interval's projected wall span while its
        charges land, so rate estimators register the interval's bytes
        as an average-rate reservation over the span instead of a
        lump-sum bucket deposit — without this, a coalesced interval
        shows *concurrent* flows a utilisation spike that exact
        execution never exhibits.  (Queue backlog is *not* spread: see
        :meth:`FluidRegion.interval`.)

        Singles keep exact charging: a k=1 burst lands within one
        estimator bucket anyway, so spreading it would only perturb the
        phase statistics it already matches."""
        estimate = self._per_burst_wall
        if k <= 1 or not estimate:
            return nullcontext()
        return self.region.interval(int(k * estimate), flow_id=id(self))

    def _wall_cap_ns(self, warmup_ns: int, duration_ns: int) -> int:
        return self.region.wall_cap_ns(warmup_ns, duration_ns)


def make_governor(env) -> TrainGovernor:
    """The per-flow governor matching the environment's accuracy mode
    (exact mode constructs one too, but never plans k > 1 because the
    workloads only consult it when ``env.adaptive``).

    The ``train_coalescing`` component clears ``env.train_coalescing``:
    the governor then never coalesces (max one burst per train), which
    in the adaptive/fluid tiers reverts every flow to per-burst events
    — and is inert in exact mode, where trains never form anyway."""
    if not getattr(env, "train_coalescing", True):
        return TrainGovernor(max_bursts=1)
    if getattr(env, "fluid", False):
        return FluidGovernor(fluid_region(env))
    return TrainGovernor()


def burst_loop(workload, thread, burst, burst_bytes: int,
               burst_messages: int, token, bursts_until_wrap):
    """Run ``workload``'s steady burst loop on ``thread`` until its
    duration (a generator for the thread body to ``yield from``).

    ``burst(k)`` charges k identical back-to-back bursts of
    ``burst_bytes`` and ``burst_messages`` each and returns ``(cpu_ns,
    dev_ns)``; ``token()`` and ``bursts_until_wrap()`` feed the
    governor.  The workload provides ``env``, ``meter``, ``governor``,
    ``warmup_ns`` and ``duration_ns``.

    Exact accuracy runs ``burst(1)`` per event with no governor call.
    The fast tiers let the governor size each train and align the meter
    progressively: a train's bytes are recorded at its start, so the
    meter runs from the first train's start to the projected end of the
    last (the convergence loop may stop the run mid-train, and the
    first post-warmup train may start a little after warmup).
    """
    env = workload.env
    meter = workload.meter
    warmup_ns = workload.warmup_ns
    duration_ns = workload.duration_ns
    governor = workload.governor if env.adaptive else None
    while env._now < duration_ns:
        # Nothing in an iteration before its yield advances the clock,
        # and the loop test already holds now < duration_ns.
        now = env._now
        if governor is None:
            cpu, dev = burst(1)
            if warmup_ns <= now:
                meter.record(burst_bytes, burst_messages)
        else:
            k = governor.plan_train(token(), now, warmup_ns, duration_ns,
                                    burst_bytes=burst_bytes,
                                    bursts_until_wrap=bursts_until_wrap)
            with governor.interval(k):
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

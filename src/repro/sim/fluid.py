"""Fluid-flow steady-interval coordination (``--accuracy=fluid``).

The fluid tier extends train coalescing (PR 3) from packet bursts to
flow-level fluid modeling: while every input a flow's service depends on
is unchanged, the simulator advances a whole *steady interval* in one
event, deriving per-flow byte/packet/interrupt/doorbell counts from
closed-form rate shares over the ``BandwidthServer`` queues instead of
replaying each burst.

:class:`FluidRegion` is the per-environment coordinator.  It does three
things:

* **Token extension** — folds the environment-wide
  :attr:`~repro.sim.engine.Environment.rate_epoch` (bumped by every
  ``BandwidthServer.set_rate``: fault throttles, PCIe retraining) into
  each flow's ``steady_token``, so *any* rate change anywhere in the
  machine de-coalesces *every* fluid flow at its next planning point.
  Per-flow invalidation (core migration, PF liveness, steering epoch,
  moderation budget, wire impairment) rides on the same tokens
  ``TrainGovernor`` already tracks.
* **Interval sizing policy** — a steady interval may span many ring
  wraps (the exact model attaches no cost to a wrap; doorbells,
  completions and interrupts are still charged per burst in closed
  form) but never more than ``1/WALL_SLICES`` of the measurement
  window: this bounds both the convergence loop's blind spot and the
  worst-case lag between a fault firing and the fluid flows observing
  it.
* **Accounting** — counts intervals granted, bursts advanced
  analytically, and invalidations, for tests.

The region is deliberately passive: governors
(:class:`repro.workloads.train.FluidGovernor`) consult it at every
planning point; it never schedules events itself.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sim.engine import Environment

#: A steady interval never exceeds this fraction (1/N) of the
#: measurement window, so run_until_converged still sees fresh
#: estimates every slice and a mid-run rate change is observed within
#: one slice.  8 slices bound the fault-observation lag at 12.5% of the
#: window while letting the fig08 quick point coalesce ~50-burst
#: intervals (16 slices left a third of the possible speedup on the
#: table for no measurable fidelity gain — deviations are identical to
#: three decimal places either way).
WALL_SLICES = 8

#: Absolute ceiling on a steady interval's simulated wall span.  The
#: window-relative cap above assumes the nominal duration *is* the
#: horizon, but some experiments stop early on an external condition
#: (fig13 runs I/O streams with a long nominal duration and stops when
#: the colocated PageRank finishes); without an absolute bound a
#: governor could charge traffic far past the point where the run
#: actually ends, inflating rate meters and outrunning contention that
#: the co-runner should have observed.  It also bounds the error a
#: windowed rate sampler sees (fig14 samples per-PF bytes over 50 ms
#: windows): a coalesced train books its bytes at one instant, so each
#: window edge can gain or lose at most one interval's worth of
#: traffic — 1 ms caps that at 2% of a 50 ms window.
MAX_INTERVAL_WALL_NS = 1_000_000


class FluidRegion:
    """Coordinates closed-form steady-interval service for one
    :class:`~repro.sim.engine.Environment`."""

    def __init__(self, env: Environment):
        self.env = env
        #: Number of fluid governors subscribed.
        self.flows = 0
        #: Steady intervals granted (plans with k > 1).
        self.steady_intervals = 0
        #: Bursts advanced analytically instead of event-by-event.
        self.bursts_advanced = 0
        #: Token mismatches that forced a de-coalesce back to k=1.
        self.invalidations = 0

    # -- subscription -----------------------------------------------------

    def register(self) -> None:
        self.flows += 1

    # -- invalidation tokens ----------------------------------------------

    def token(self, flow_token) -> tuple:
        """The flow token extended with every region-wide invalidation
        input (currently the global rate epoch)."""
        return (flow_token, self.env.rate_epoch)

    # -- interval sizing ---------------------------------------------------

    def wall_cap_ns(self, warmup_ns: int, duration_ns: int) -> int:
        """Longest steady interval (in simulated wall time) allowed for
        a run with this measurement window."""
        cap = (int(duration_ns) - int(warmup_ns)) // WALL_SLICES
        return max(1, min(cap, MAX_INTERVAL_WALL_NS))

    @contextmanager
    def interval(self, span_ns: int, flow_id: int = 0):
        """Mark the charges issued inside the block as one steady
        interval of flow ``flow_id`` spanning ``span_ns`` of simulated
        wall time.

        While active, ``RateEstimator`` registers the bytes as a
        per-flow rate reservation over the span, so concurrent flows'
        load-factor reads see the interval's *average* rate — the
        closed-form rate-share semantics — instead of the instantaneous
        spike a lump-sum bucket deposit would produce.
        ``BandwidthServer`` queue backlog is deliberately *not*
        discounted: the coalesced charge is real aggregate service, and
        flows sharing the server (a colocated analytics job crossing
        the same interconnect, say) must still queue behind it exactly
        as they would behind the equivalent burst sequence.  Nested
        intervals keep the innermost span.
        """
        env = self.env
        prev_span = env.fluid_span_ns
        prev_flow = env.fluid_flow_id
        env.fluid_span_ns = max(0, int(span_ns))
        env.fluid_flow_id = flow_id
        try:
            yield
        finally:
            env.fluid_span_ns = prev_span
            env.fluid_flow_id = prev_flow

    # -- accounting ---------------------------------------------------------

    def grant(self, nbursts: int) -> None:
        self.steady_intervals += 1
        self.bursts_advanced += nbursts

    def invalidated(self) -> None:
        self.invalidations += 1


def fluid_region(env: Environment) -> FluidRegion:
    """The environment's (lazily created) fluid coordinator."""
    region = getattr(env, "_fluid_region", None)
    if region is None:
        region = FluidRegion(env)
        env._fluid_region = region
    return region

"""Shared experiment runners (build a testbed, run one workload point).

Every runner here takes an ``accuracy`` tier (one of
:data:`~repro.experiments.base.ACCURACY_MODES`, default ``"exact"``);
the tier is an argument, never a process default, so a point's result
depends only on its parameters.  A quick sweep passes them
``"adaptive"``, so the points of fig06–fig09, fig11, fig12 and sec24
run it:

* ``"exact"`` — the full run: every burst is its own event, metrics are
  probed over the fixed measurement window.  Bit-identical to the
  pre-train behaviour (the determinism goldens pin this).
* ``"adaptive"`` — the quick-fidelity fast path: the runner hands its
  workload a :class:`~repro.workloads.train.TrainGovernor`, which
  coalesces steady-state packet trains, and stops the point early once
  its primary estimate has converged (:func:`run_until_converged`),
  reading metrics over the train-aligned covered time instead of the
  full window.  Request/response points (:func:`run_rr`: TCP_RR,
  sockperf) form no trains and stop once their average latency
  converges.

fig10's memcached points and the STREAM-loaded points of abl_window,
fig15 and abl_octossd take no tier and keep the fixed window: their
meters count whole transactions or bursts (512 KB values, 64 KB TCP
bursts, 4 MB fio batches), so a shorter window moves their cells or
saves little.

Every window is measured the same way: snapshot the cumulative counters
when it opens and difference them when it is read (:class:`Window`,
:func:`sample_gbps`).  No component keeps a resettable copy, so any
number of windows may be open on one testbed without disturbing each
other.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.components import SystemConfig
from repro.core.configurations import Testbed
from repro.experiments.base import ACCURACY_MODES
from repro.metrics.collect import TimeSeries
from repro.nic.packet import Flow
from repro.workloads.netperf import RequestResponse, TcpStream
from repro.workloads.pktgen import Pktgen
from repro.workloads.stream_bench import spawn_stream_pairs
from repro.workloads.train import TrainGovernor

#: Fraction of the run used as warmup before measurement starts.
WARMUP_FRACTION = 0.15

#: Extra simulated slack after the measured window (as a divisor of the
#: duration) so in-flight work can drain before metrics are read.
SLACK_DIVISOR = 5

#: Adaptive early termination: the measurement window is sliced this many
#: times; after each slice the primary estimate is re-read.
CONVERGE_SLICES = 16
#: The last this-many estimates must agree ...  (so no point stops
#: before this many slices; 5, not 3: workloads with coarse per-sample
#: quantisation drift at the percent scale for several slices, and a
#: 3-slice window can sit flat on a transient plateau.)
CONVERGE_WINDOW = 5
#: ... to within this relative half-width for the point to stop early.
CONVERGE_REL = 0.005


def warmup_of(duration_ns: int) -> int:
    return int(duration_ns * WARMUP_FRACTION)


def is_adaptive(accuracy: str) -> bool:
    """Whether a runner given ``accuracy`` takes the fast path; any
    value outside :data:`ACCURACY_MODES` is a ValueError."""
    if accuracy not in ACCURACY_MODES:
        raise ValueError(f"accuracy must be one of {ACCURACY_MODES}, "
                         f"got {accuracy!r}")
    return accuracy == "adaptive"


def system_for(config: str,
               components: Optional[Mapping[str, bool]] = None,
               ) -> SystemConfig:
    """Preset + optional component-override map (the ablation engine
    passes plain dicts so points stay JSON-serialisable for the sweep
    cache) as a SystemConfig."""
    system = SystemConfig(preset=config)
    for name, enabled in sorted((components or {}).items()):
        system = system.with_override(name, bool(enabled))
    return system


def run_with_slack(testbed: Testbed, duration_ns: int) -> None:
    """Run the testbed for the measured window plus drain slack."""
    testbed.run(duration_ns + duration_ns // SLACK_DIVISOR)


# ------------------------------------------------------------ windows

class Window:
    """The server's DRAM traffic and per-core busy time since it opened.

    Opening one snapshots the cumulative counters (every DRAM
    controller's read and write bytes, every core's ``busy_ns``); each
    reading is the difference against that snapshot.  The caller
    supplies the elapsed time: the exact runners use the fixed
    measurement window, the adaptive ones the train-aligned
    :func:`meter_elapsed`, so charge-ahead trains do not skew the
    readings.
    """

    def __init__(self, machine):
        self._drams = machine.memory.drams
        self._dram_bytes = self._dram_total()
        self._busy_ns = {core.core_id: core.busy_ns for core in machine.cores}

    def _dram_total(self) -> int:
        return sum(d.read_bytes + d.write_bytes for d in self._drams)

    def membw_gbps(self, elapsed_ns: int) -> float:
        """DRAM read+write traffic since the window opened, in Gb/s
        over ``elapsed_ns``."""
        return (self._dram_total() - self._dram_bytes) * 8 / elapsed_ns

    def busy_ns(self, core) -> int:
        """Busy ns charged to ``core`` since the window opened."""
        return core.busy_ns - self._busy_ns[core.core_id]


def sample_gbps(env, sources: Mapping[str, Sequence[Callable[[], int]]],
                sample_ns: int, until_ns: int) -> Dict[str, TimeSeries]:
    """Sample throughput series every ``sample_ns`` until ``until_ns``.

    ``sources`` maps each series name to the cumulative byte counters it
    adds up (a PF's ``pf_rx_bytes``, say, or one port's
    ``pf_read_bytes`` on every drive).  One process records, for each
    series, the sum over its sources of ``delta * 8 / elapsed`` in Gb/s,
    in source order.  Started at time 0, it samples first at
    ``sample_ns`` and last at the first multiple of it at or past
    ``until_ns``.
    """
    if sample_ns <= 0:
        raise ValueError(f"sample_ns must be > 0, got {sample_ns}")
    series = {key: TimeSeries(key) for key in sources}

    def sampler():
        last = {key: [read() for read in reads]
                for key, reads in sources.items()}
        while env.now < until_ns:
            start = env.now
            yield int(sample_ns)
            elapsed = env.now - start
            for key, reads in sources.items():
                counts = [read() for read in reads]
                series[key].sample(env.now, sum(
                    (count - before) * 8 / elapsed
                    for before, count in zip(last[key], counts)))
                last[key] = counts

    env.process(sampler(), name="sampler")
    return series


# --------------------------------------------------------------- adaptive

def _converged(estimates: List[Optional[float]]) -> bool:
    """True when the last CONVERGE_WINDOW estimates agree to within a
    CONVERGE_REL relative half-width."""
    if len(estimates) < CONVERGE_WINDOW:
        return False
    tail = estimates[-CONVERGE_WINDOW:]
    if any(e is None for e in tail):
        return False
    lo, hi = min(tail), max(tail)
    mid = (lo + hi) / 2
    if mid == 0:
        return hi == lo
    return (hi - lo) / 2 <= CONVERGE_REL * abs(mid)


def run_until_converged(testbed: Testbed, duration_ns: int,
                        estimate: Callable[[], float]) -> Window:
    """Adaptive steady-state early termination for one point.

    Runs the warmup, opens a :class:`Window` on the server, then
    advances the testbed one slice of the measurement window at a time,
    re-reading the primary ``estimate`` after each.  Stops as soon as
    the estimate has converged (or the full window elapses).  Returns
    the window.
    """
    warmup = warmup_of(duration_ns)
    testbed.run(warmup)
    window = Window(testbed.server.machine)
    span = duration_ns - warmup
    estimates: List[Optional[float]] = []
    for i in range(1, CONVERGE_SLICES + 1):
        testbed.run(warmup + span * i // CONVERGE_SLICES)
        try:
            estimates.append(estimate())
        except ValueError:
            # Nothing measured yet (meter unfinished / no samples).
            estimates.append(None)
        if _converged(estimates):
            break
    return window


def meter_elapsed(meter) -> int:
    """Covered time of an adaptive run: first record to the (train-
    aligned, progressively finished) end.  A governed burst loop snaps
    ``start_ns`` to its first recorded train and projects ``end_ns``
    past its last, so dividing a :class:`Window`'s differences by
    this — instead of env.now − warmup — cancels both boundary effects:
    the dead gap before the first post-warmup train and the charge-ahead
    of the last one."""
    end = meter.end_ns if meter.end_ns is not None else meter.start_ns
    return max(1, end - meter.start_ns)


class MembwProbe:
    """Measures server DRAM bandwidth and per-core CPU utilisation over
    exactly the measurement window (warmup..duration), excluding both
    cold-start transients (first fill of the skb pools) and the idle tail
    after workloads stop."""

    def __init__(self, testbed: Testbed, duration_ns: int):
        self.gbps = 0.0
        self._cpu_by_core = {}
        machine = testbed.server.machine
        warmup = warmup_of(duration_ns)
        elapsed = duration_ns - warmup

        def probe():
            yield warmup
            window = Window(machine)
            yield int(elapsed)
            self.gbps = window.membw_gbps(elapsed)
            self._cpu_by_core = {
                core.core_id: min(1.0, window.busy_ns(core) / elapsed)
                for core in machine.cores}

        machine.env.process(probe(), name="membw-probe")

    def cpu(self, core) -> float:
        return self._cpu_by_core.get(core.core_id, 0.0)


# ---------------------------------------------------------------- runners

def run_tcp_stream(config: str, message_bytes: int, direction: str,
                   duration_ns: int, stream_pairs: int = 0,
                   seed: int = 0,
                   accuracy: str = "exact",
                   components: Optional[Dict[str, bool]] = None,
                   obs=None) -> Dict[str, float]:
    """One netperf TCP_STREAM point; returns throughput/membw/cpu."""
    adaptive = is_adaptive(accuracy)
    testbed = Testbed(system_for(config, components), seed=seed)
    if obs is not None:
        obs.attach(testbed, horizon_ns=duration_ns)
    host = testbed.server
    warmup = warmup_of(duration_ns)
    workload = TcpStream(host, testbed.server_core(0), Flow.make(0),
                         message_bytes, direction, duration_ns, warmup,
                         governor=TrainGovernor() if adaptive else None)
    if stream_pairs:
        spawn_stream_pairs(host, stream_pairs, duration_ns, warmup,
                           skip_cores=[testbed.server_core(0)])
    if adaptive:
        window = run_until_converged(testbed, duration_ns,
                                     workload.meter.gbps)
        elapsed = meter_elapsed(workload.meter)
        return {
            "throughput_gbps": workload.throughput_gbps(),
            "membw_gbps": window.membw_gbps(elapsed),
            "cpu_cores": min(1.0, window.busy_ns(workload.thread.core)
                             / elapsed),
        }
    probe = MembwProbe(testbed, duration_ns)
    run_with_slack(testbed, duration_ns)
    return {
        "throughput_gbps": workload.throughput_gbps(),
        "membw_gbps": probe.gbps,
        "cpu_cores": probe.cpu(workload.thread.core),
    }


def run_pktgen(config: str, packet_bytes: int, duration_ns: int,
               ring_home_node: Optional[int] = None,
               seed: int = 0,
               accuracy: str = "exact",
               components: Optional[Dict[str, bool]] = None,
               obs=None) -> Dict[str, float]:
    """One pktgen point."""
    adaptive = is_adaptive(accuracy)
    testbed = Testbed(system_for(config, components), seed=seed)
    if obs is not None:
        obs.attach(testbed, horizon_ns=duration_ns)
    workload = Pktgen(testbed.server, testbed.server_core(0), packet_bytes,
                      duration_ns, warmup_of(duration_ns),
                      ring_home_node=ring_home_node,
                      governor=TrainGovernor() if adaptive else None)
    if adaptive:
        window = run_until_converged(testbed, duration_ns,
                                     workload.meter.mpps)
        elapsed = meter_elapsed(workload.meter)
        return {
            "throughput_gbps": workload.throughput_gbps(),
            "mpps": workload.mpps(),
            "membw_gbps": window.membw_gbps(elapsed),
        }
    probe = MembwProbe(testbed, duration_ns)
    run_with_slack(testbed, duration_ns)
    return {
        "throughput_gbps": workload.throughput_gbps(),
        "mpps": workload.mpps(),
        "membw_gbps": probe.gbps,
    }


def run_rr(config: str, message_bytes: int, duration_ns: int,
           protocol: str = "tcp", client_config: str = "local",
           ddio: bool = True, stream_pairs: int = 0, seed: int = 0,
           accuracy: str = "exact",
           components: Optional[Dict[str, bool]] = None,
           obs=None) -> float:
    """One request/response point (fig09's TCP_RR, fig12's sockperf
    beside ``stream_pairs`` STREAM pairs); returns the mean round trip
    in ns."""
    system = system_for(config, components)
    if not ddio:
        system = system.with_override("ddio", False)
    testbed = Testbed(system, client_config=client_config, seed=seed)
    if obs is not None:
        obs.attach(testbed, horizon_ns=duration_ns)
    workload = RequestResponse(testbed, message_bytes, duration_ns,
                               warmup_of(duration_ns), protocol)
    if stream_pairs:
        spawn_stream_pairs(testbed.server, stream_pairs, duration_ns,
                           skip_cores=[testbed.server_core(0)])
    if is_adaptive(accuracy):
        # The loop forms no trains, so early termination alone does the
        # saving: the per-iteration latency is nearly deterministic, and
        # the average settles within a few convergence slices.
        run_until_converged(testbed, duration_ns,
                            workload.latencies.average)
    else:
        run_with_slack(testbed, duration_ns)
    return workload.average_rtt_ns()


#: The workloads :func:`run_point` runs (``obs``, ``obs blame`` and
#: ``obs diff`` offer these).
POINT_WORKLOADS = ("pktgen", "tcp_rx", "tcp_tx", "rr")


def run_point(workload: str, config: str, size: int, duration_ns: int,
              seed: int = 0, accuracy: str = "exact",
              components: Optional[Dict[str, bool]] = None, obs=None,
              client_config: str = "local",
              ddio: bool = True) -> Dict[str, float]:
    """One point of a :data:`POINT_WORKLOADS` workload with ``size``-byte
    packets or messages; rr's result is ``{"rtt_ns": mean}``, and only
    rr reads ``client_config`` and ``ddio``."""
    common = dict(duration_ns=duration_ns, seed=seed, accuracy=accuracy,
                  components=components, obs=obs)
    if workload == "pktgen":
        return run_pktgen(config, size, **common)
    if workload in ("tcp_rx", "tcp_tx"):
        return run_tcp_stream(config, size, workload[4:], **common)
    if workload == "rr":
        return {"rtt_ns": run_rr(config, size, client_config=client_config,
                                 ddio=ddio, **common)}
    raise ValueError(f"workload must be one of {POINT_WORKLOADS}, "
                     f"got {workload!r}")

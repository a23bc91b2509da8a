"""Per-node DRAM controllers.

Each node's memory controller is a processor-sharing bandwidth server (many
agents interleave on a real controller) plus read/write byte counters used
to report "memory bandwidth" exactly the way the paper's figures do, and a
load bucket that inflates miss latencies under load.
"""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.sim.errors import SimulationError
from repro.sim.resources import LOAD_BUCKET_NS

#: Latency inflation strength: fill latency grows as 1 + ALPHA * u^2 with
#: controller utilisation u (classic open-queue approximation).
_ALPHA = 3.0


class DramController:
    """One NUMA node's memory controller.

    Bandwidth is processor-shared: with N long-running consumers declared
    (:meth:`enter`), each burst is served at rate/N.  Strict FIFO would be
    too pessimistic for the small, interleaved accesses a controller sees;
    the instantaneous consumer count is accurate when flows have similar
    sizes (our accesses are cache-line batches).

    Every read and write also lands in the controller's load bucket
    (:data:`~repro.sim.resources.LOAD_BUCKET_NS` wide), which
    :meth:`load_factor` reads.  Both run on every STREAM chunk, so they
    charge and read the bucket inline.
    """

    def __init__(self, env: Environment, node_id: int,
                 bytes_per_sec: float, miss_latency_ns: int):
        if bytes_per_sec <= 0:
            raise ValueError(f"bytes_per_sec must be > 0, got {bytes_per_sec}")
        self.env = env
        self.node_id = node_id
        self.miss_latency_ns = int(miss_latency_ns)
        self.bytes_per_sec = float(bytes_per_sec)
        self.bucket_ns = LOAD_BUCKET_NS
        self._bucket_start = 0
        self._bucket_bytes = 0
        self._last_utilization = 0.0   # the last completed bucket's load
        self.read_bytes = 0
        self.write_bytes = 0
        self._active = 0            # declared long-running consumers

    def read(self, nbytes: int) -> int:
        """Charge a read burst; returns its bandwidth-limited service ns."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.read_bytes += nbytes
        now = self.env._now
        elapsed = now - self._bucket_start
        if elapsed >= self.bucket_ns:
            last = (self._bucket_bytes * 1e9
                    / (self.bytes_per_sec * (elapsed if elapsed > 1 else 1)))
            self._last_utilization = last if last < 1.0 else 1.0
            self._bucket_start = now
            self._bucket_bytes = nbytes
        else:
            self._bucket_bytes += nbytes
        active = self._active
        return round(nbytes * (active if active > 1 else 1) * 1e9
                     / self.bytes_per_sec)

    def write(self, nbytes: int) -> int:
        """Charge a write burst; returns its bandwidth-limited service ns."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.write_bytes += nbytes
        now = self.env._now
        elapsed = now - self._bucket_start
        if elapsed >= self.bucket_ns:
            last = (self._bucket_bytes * 1e9
                    / (self.bytes_per_sec * (elapsed if elapsed > 1 else 1)))
            self._last_utilization = last if last < 1.0 else 1.0
            self._bucket_start = now
            self._bucket_bytes = nbytes
        else:
            self._bucket_bytes += nbytes
        active = self._active
        return round(nbytes * (active if active > 1 else 1) * 1e9
                     / self.bytes_per_sec)

    def load_factor(self) -> float:
        """Multiplier applied to miss latencies under load (>= 1)."""
        elapsed = self.env._now - self._bucket_start
        if elapsed <= 0:
            u = self._last_utilization
        else:
            current = (self._bucket_bytes * 1e9
                       / (self.bytes_per_sec * elapsed))
            current = current if current < 1.0 else 1.0
            # Blend: the current bucket only counts once it has some
            # history, so a single burst at bucket start doesn't read as
            # saturation.
            weight = elapsed / self.bucket_ns
            weight = weight if weight < 1.0 else 1.0
            u = (1.0 - weight) * self._last_utilization + weight * current
        return 1.0 + _ALPHA * u * u

    def loaded_miss_latency(self) -> int:
        """Miss latency inflated by the controller's current load."""
        return int(self.miss_latency_ns * self.load_factor())

    def enter(self) -> None:
        """Declare a long-running bandwidth consumer (slows everyone)."""
        self._active += 1

    def leave(self) -> None:
        if self._active <= 0:
            raise SimulationError(
                f"leave() without enter() on dram{self.node_id}")
        self._active -= 1

    def __repr__(self) -> str:
        return (f"<DramController node={self.node_id} "
                f"r={self.read_bytes} w={self.write_bytes}>")

"""Host-side driver base shared by every octo-device personality.

The pieces of :mod:`repro.os_model.driver` that never mentioned a
packet: retry backoff against dead hardware (the PCIe AER/hotplug
recovery discipline), the asynchronous kernel worker that applies
deferred steering updates, and the standard counters every driver
exposes to tests and metrics.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.device.paths import CompletionPath, DoorbellPath
from repro.sim.errors import DeviceGoneError, RetriesExhausted


class DeviceDriver:
    """Base class for host-side drivers of a :class:`MultiPfDevice`."""

    name = "base"

    #: The §4.2 no-reorder rule: deferred steering updates (migration
    #: re-steers, failover/recovery re-steer plans) wait for the old
    #: queue(s) to drain.  The ``no_reorder_resteer`` component clears
    #: this to model the unsafe immediate-re-steer baseline.
    no_reorder_resteer = True

    def __init__(self, machine, device):
        self.machine = machine
        self.device = device
        self.env = machine.env
        #: Submission/completion cost paths (shared across this driver's
        #: queues; per-queue state lives on the queues themselves).
        self.doorbell = DoorbellPath(machine)
        self.completion = CompletionPath(machine,
                                         machine.spec.software.irq_ns)
        #: Count of steering updates applied (exposed for tests/metrics).
        self.steering_updates = 0
        #: Count of backed-off retries against dead hardware.
        self.retries = 0

    # -------------------------------------------------------------- API

    def call_with_retry(self, operation: Callable, max_attempts: int = 6,
                        base_backoff_ns: int = 2_000,
                        deadline_ns: Optional[int] = None):
        """Run ``operation`` with exponential backoff on dead hardware.

        A generator for use inside sim processes::

            result = yield from driver.call_with_retry(
                lambda: device.tx(queue, region, n, size))

        Each :class:`DeviceGoneError` attempt backs off twice as long as
        the previous one (the PCIe AER/hotplug recovery discipline).  The
        retry budget is explicitly bounded two ways: after
        ``max_attempts`` failures, or — when ``deadline_ns`` is given —
        once the next backoff would push past ``deadline_ns`` of
        simulated time since the call started, the operation is
        abandoned with :class:`RetriesExhausted` (a
        :class:`~repro.sim.errors.DeviceTimeoutError` subtype), so a
        permanent fault fails loudly instead of hanging the run.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if deadline_ns is not None and deadline_ns < 0:
            raise ValueError(f"deadline_ns must be >= 0, got {deadline_ns}")
        started_ns = self.env.now
        last_error: Optional[DeviceGoneError] = None
        attempts = 0
        for attempt in range(max_attempts):
            attempts = attempt + 1
            try:
                return operation()
            except DeviceGoneError as error:
                last_error = error
            if attempt == max_attempts - 1:
                break
            backoff = base_backoff_ns << attempt
            if (deadline_ns is not None
                    and self.env.now - started_ns + backoff > deadline_ns):
                break
            self.retries += 1
            yield backoff
        raise RetriesExhausted(
            f"{self.name}: operation still failing after {attempts} "
            f"attempts over {self.env.now - started_ns} ns "
            f"({last_error})",
            attempts=attempts,
            elapsed_ns=self.env.now - started_ns,
            last_error=last_error)

    # --------------------------------------------------------- internals

    def _apply_after(self, delay_ns: int, apply_fn) -> None:
        """Run ``apply_fn`` after ``delay_ns`` via an asynchronous kernel
        worker — the deferred-steering discipline of §4.2."""
        def worker():
            yield int(delay_ns)
            apply_fn()
            self.steering_updates += 1
        self.env.process(worker(), name=f"{self.name}-steer-worker")

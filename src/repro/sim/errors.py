"""Exceptions raised by the simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ScheduleInPastError(SimulationError):
    """A process slept a negative time, or a run was asked to stop
    before the current simulation time."""


class DeviceGoneError(SimulationError):
    """An operation was issued against hardware that has failed or been
    surprise-removed (dead PF, downed PCIe link)."""


class DeviceTimeoutError(SimulationError):
    """A driver operation exhausted its retry budget against dead
    hardware."""


class RetriesExhausted(DeviceTimeoutError):
    """Typed retry-budget exhaustion: the attempt cap or the sim-time
    deadline of :meth:`repro.device.driver.DeviceDriver.call_with_retry`
    was hit.

    Subclasses :class:`DeviceTimeoutError` so existing ``except`` clauses
    keep working; carries the budget that ran out so fuzzed permanent
    faults fail loudly with a diagnosable error instead of hanging.
    """

    def __init__(self, message: str, attempts: int = 0,
                 elapsed_ns: int = 0, last_error=None):
        super().__init__(message)
        self.attempts = attempts
        self.elapsed_ns = elapsed_ns
        self.last_error = last_error

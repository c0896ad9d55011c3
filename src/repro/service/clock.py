"""Service clocks: real wall time or a manually advanced virtual clock.

The service layer stamps every latency-bearing moment — admission,
placement, dispatch, completion — through one :class:`Clock` object
instead of calling ``time.perf_counter_ns()`` directly (which is why the
clock lives here; :mod:`repro.loadgen` only advances one). That
indirection is what makes sustained-traffic load tests runnable in
milliseconds of wall time:

- :class:`WallClock` (the default) reads the process's monotonic
  perf-counter; a ``repro serve`` run behaves exactly as it always has.
- :class:`VirtualClock` is a manually advanced monotonic counter. The
  service moves it to the next worker busy horizon when nothing is
  dispatchable (:meth:`~repro.service.service.TranscodeService.step`),
  the load-test driver moves it to each arrival instant, and the service
  *charges* simulated encode time (``cycles / clock_hz``) against
  per-worker busy horizons rather than sleeping — so a ten-minute
  diurnal trace resolves queue-wait and e2e percentiles in virtual
  seconds, deterministically.

Both clocks expose the same methods; ``advance_to_ns`` is a no-op on the
wall clock (real time advances itself), and the ``virtual`` flag tells
the service which timing regime to record (measured wall durations vs.
deterministic simulated charges).
"""

from __future__ import annotations

import time

__all__ = ["Clock", "VirtualClock", "WallClock"]


class Clock:
    """Interface shared by :class:`WallClock` and :class:`VirtualClock`.

    ``virtual`` tells consumers whether durations must be *charged*
    (deterministic simulated seconds) or can be *measured* (elapsed
    perf-counter deltas).
    """

    virtual: bool = False

    def now_ns(self) -> int:
        """Current time in integer nanoseconds (monotonic)."""
        raise NotImplementedError

    def advance_to_ns(self, t_ns: int) -> None:
        """Move time forward to ``t_ns`` (never backward)."""
        raise NotImplementedError


class WallClock(Clock):
    """Real time: a thin wrapper over ``time.perf_counter_ns()``."""

    virtual = False

    def now_ns(self) -> int:
        """The process's monotonic perf-counter, in nanoseconds."""
        return time.perf_counter_ns()

    def advance_to_ns(self, t_ns: int) -> None:
        """No-op: wall time advances on its own."""


class VirtualClock(Clock):
    """A manually advanced monotonic clock for simulated-time load tests.

    Starts at ``start_ns`` (default 0, so virtual timestamps read as
    offsets from the start of the scenario) and only moves when someone
    calls :meth:`advance_to_ns`. Attempts to move backward are ignored,
    preserving monotonicity no matter how arrival schedules and
    completion horizons interleave.
    """

    virtual = True

    def __init__(self, start_ns: int = 0) -> None:
        self._now_ns = int(start_ns)

    def now_ns(self) -> int:
        """The current virtual instant, in nanoseconds."""
        return self._now_ns

    def advance_to_ns(self, t_ns: int) -> None:
        """Jump forward to ``t_ns``; ignored if ``t_ns`` is in the past."""
        t_ns = int(t_ns)
        if t_ns > self._now_ns:
            self._now_ns = t_ns

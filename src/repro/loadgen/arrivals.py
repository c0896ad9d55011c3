"""Deterministic, seedable arrival processes for open-loop load tests.

An arrival process turns ``(rate, duration, seed)`` into an
:class:`ArrivalSchedule` — a sorted tuple of arrival instants in seconds
from the start of the scenario. The schedule is generated *up front* and
offered to the system regardless of how fast it completes work: that is
what makes the generator **open-loop** (wrk-style), so queueing delay
and shed load under overload are observable instead of being masked by
closed-loop backpressure.

Four processes cover the regimes the load-test harness exercises:

- :class:`PoissonArrivals` — memoryless traffic at a target mean rate
  (exponential inter-arrivals, seeded);
- :class:`FixedIntervalArrivals` — the deterministic control: one
  arrival every ``1/rate`` seconds exactly;
- :class:`DiurnalArrivals` — a sinusoidal rate trace (the day/night
  pattern of a transcoding front door), generated by *deterministically
  inverting* the cumulative intensity, so the schedule length equals the
  integral of the rate trace — no randomness at all;
- :class:`MmppArrivals` — bursty traffic: a two-state Markov-modulated
  Poisson process alternating quiet and burst rates whose time average
  equals the target rate.

Determinism contract (asserted by ``tests/property/test_loadgen_props``):
the same ``(kind, rate, duration, seed, extras)`` produces a
*byte-identical* schedule in any process — randomness comes only from
``numpy``'s seeded PCG64 stream, never from global RNG state, ``hash()``,
or wall time.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "ArrivalSchedule",
    "DiurnalArrivals",
    "FixedIntervalArrivals",
    "MmppArrivals",
    "PoissonArrivals",
    "make_arrivals",
]


@dataclass(frozen=True)
class ArrivalSchedule:
    """A realized arrival schedule: sorted offsets in seconds from t=0."""

    times_s: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times_s):
            raise ValueError("arrival times must be non-negative")
        if any(b < a for a, b in zip(self.times_s, self.times_s[1:])):
            raise ValueError("arrival times must be sorted")

    def __len__(self) -> int:
        return len(self.times_s)

    def __iter__(self):
        return iter(self.times_s)

    def inter_arrivals(self) -> tuple[float, ...]:
        """Gaps between consecutive arrivals (first gap is from t=0)."""
        prev = 0.0
        gaps = []
        for t in self.times_s:
            gaps.append(t - prev)
            prev = t
        return tuple(gaps)

    def digest(self) -> str:
        """SHA-256 over the exact float64 bytes of the schedule.

        Two schedules are byte-identical iff their digests match, which
        is how the determinism property is asserted across processes.
        """
        payload = struct.pack(f"<{len(self.times_s)}d", *self.times_s)
        return hashlib.sha256(payload).hexdigest()


class ArrivalProcess:
    """Base class: a named process that realizes arrival schedules."""

    kind = "abstract"

    def __init__(self, rate: float, *, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be > 0 req/s, got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def schedule(self, duration_s: float) -> ArrivalSchedule:
        """Realize the arrivals offered during ``[0, duration_s)``."""
        if duration_s <= 0:
            raise ValueError(f"duration must be > 0 s, got {duration_s}")
        return ArrivalSchedule(tuple(self._times(float(duration_s))))

    def _times(self, duration_s: float) -> list[float]:
        raise NotImplementedError

    def _rng(self) -> np.random.Generator:
        """A fresh seeded generator — every realization is identical."""
        return np.random.Generator(np.random.PCG64(self.seed))

    def describe(self) -> str:
        """One-line summary for reports and run.json metadata."""
        return f"{self.kind}(rate={self.rate:g}/s, seed={self.seed})"


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson traffic: exponential inter-arrival gaps with
    mean ``1/rate`` (the memoryless baseline of open-loop generators)."""

    kind = "poisson"

    def _times(self, duration_s: float) -> list[float]:
        rng = self._rng()
        times: list[float] = []
        t = 0.0
        # Draw gaps in blocks: fewer generator calls, same stream.
        block = max(16, int(self.rate * duration_s * 1.25) + 1)
        while True:
            for gap in rng.exponential(1.0 / self.rate, size=block):
                t += float(gap)
                if t >= duration_s:
                    return times
                times.append(t)


class FixedIntervalArrivals(ArrivalProcess):
    """The deterministic control: one arrival every ``1/rate`` seconds,
    starting at ``1/rate`` (no seed sensitivity at all)."""

    kind = "fixed"

    def _times(self, duration_s: float) -> list[float]:
        interval = 1.0 / self.rate
        n = int(math.floor(duration_s / interval))
        times = [interval * (k + 1) for k in range(n)]
        return [t for t in times if t < duration_s]


class DiurnalArrivals(ArrivalProcess):
    """A sinusoidal day/night rate trace, deterministically inverted.

    The instantaneous rate is ``rate * (1 + amplitude * sin(2πt/period))``
    and arrivals are placed where the cumulative intensity Λ(t) crosses
    each integer — the time-varying analogue of fixed-interval traffic.
    The schedule therefore *integrates exactly*: over a whole number of
    periods it contains ``floor(rate * duration)`` arrivals, and peak
    traffic is ``(1 + amplitude) / (1 - amplitude)`` times trough
    traffic, which is how a test dials in "overloaded at the peak, idle
    in the trough" without randomness.
    """

    kind = "diurnal"

    def __init__(
        self,
        rate: float,
        *,
        seed: int = 0,
        amplitude: float = 0.5,
        period_s: float = 60.0,
    ) -> None:
        super().__init__(rate, seed=seed)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {amplitude} "
                "(1.0 would stall the trough completely)"
            )
        if period_s <= 0:
            raise ValueError(f"period must be > 0 s, got {period_s}")
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)

    def cumulative(self, t: float) -> float:
        """Λ(t): expected arrivals in ``[0, t)`` under the rate trace."""
        w = 2.0 * math.pi / self.period_s
        return self.rate * (
            t + self.amplitude / w * (1.0 - math.cos(w * t))
        )

    def _times(self, duration_s: float) -> list[float]:
        total = self.cumulative(duration_s)
        n = int(math.floor(total))
        times: list[float] = []
        lo = 0.0
        for k in range(1, n + 1):
            # Λ is strictly increasing (amplitude < 1): bisect Λ(t) = k.
            hi = duration_s
            target = float(k)
            a, b = lo, hi
            for _ in range(60):  # ~1e-18 relative precision, deterministic
                mid = 0.5 * (a + b)
                if self.cumulative(mid) < target:
                    a = mid
                else:
                    b = mid
            t = 0.5 * (a + b)
            if t >= duration_s:
                break
            times.append(t)
            lo = t
        return times

    def describe(self) -> str:
        """One-line summary for reports and run.json metadata."""
        return (
            f"{self.kind}(rate={self.rate:g}/s, amplitude={self.amplitude:g}, "
            f"period={self.period_s:g}s)"
        )


class MmppArrivals(ArrivalProcess):
    """Bursty traffic: a two-state Markov-modulated Poisson process.

    The process alternates exponentially-distributed sojourns (mean
    ``sojourn_s``) between a quiet state and a burst state. Rates are
    chosen so the *time-averaged* rate equals the target: with
    ``burst = rate_high / rate_low`` and equal expected sojourns,
    ``rate_low = 2·rate/(1+burst)`` and ``rate_high = burst·rate_low``.
    Larger ``burst`` concentrates the same offered load into sharper
    spikes — the regime where queue-wait p99 detaches from p50.
    """

    kind = "mmpp"

    def __init__(
        self,
        rate: float,
        *,
        seed: int = 0,
        burst: float = 8.0,
        sojourn_s: float = 5.0,
    ) -> None:
        super().__init__(rate, seed=seed)
        if burst < 1.0:
            raise ValueError(f"burst ratio must be >= 1, got {burst}")
        if sojourn_s <= 0:
            raise ValueError(f"sojourn must be > 0 s, got {sojourn_s}")
        self.burst = float(burst)
        self.sojourn_s = float(sojourn_s)
        self.rate_low = 2.0 * self.rate / (1.0 + self.burst)
        self.rate_high = self.burst * self.rate_low

    def _times(self, duration_s: float) -> list[float]:
        rng = self._rng()
        times: list[float] = []
        t = 0.0
        high = bool(rng.integers(0, 2))  # seeded initial state
        while t < duration_s:
            sojourn = float(rng.exponential(self.sojourn_s))
            end = min(t + sojourn, duration_s)
            state_rate = self.rate_high if high else self.rate_low
            tt = t
            while True:
                tt += float(rng.exponential(1.0 / state_rate))
                if tt >= end:
                    break
                times.append(tt)
            t = end
            high = not high
        return times

    def describe(self) -> str:
        """One-line summary for reports and run.json metadata."""
        return (
            f"{self.kind}(rate={self.rate:g}/s, burst={self.burst:g}, "
            f"sojourn={self.sojourn_s:g}s, seed={self.seed})"
        )


#: Registry of arrival-process kinds, for the CLI and Settings.
ARRIVAL_KINDS: dict[str, type[ArrivalProcess]] = {
    "poisson": PoissonArrivals,
    "fixed": FixedIntervalArrivals,
    "diurnal": DiurnalArrivals,
    "mmpp": MmppArrivals,
}


def make_arrivals(
    kind: str, rate: float, *, seed: int = 0, **extras: float
) -> ArrivalProcess:
    """Build an arrival process by registry name.

    ``extras`` are kind-specific knobs (``amplitude`` / ``period_s`` for
    diurnal, ``burst`` / ``sojourn_s`` for mmpp); unknown kinds and
    unsupported extras raise ``ValueError``.
    """
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {kind!r}; "
            f"choose from {', '.join(ARRIVAL_KINDS)}"
        ) from None
    try:
        return cls(rate, seed=seed, **extras)
    except TypeError:
        raise ValueError(
            f"arrival process {kind!r} does not accept extras "
            f"{sorted(extras)}"
        ) from None

"""Property tests for the load generator's arrival processes
(Hypothesis-driven):

- **Schedule invariants**: every realized schedule is sorted,
  non-negative, and strictly inside ``[0, duration)``; inter-arrival
  gaps are non-negative and sum back to the last arrival time.
- **Poisson mean**: the empirical mean inter-arrival gap of a long
  Poisson schedule converges to ``1/rate`` (law of large numbers, with
  a generous tolerance so the test is seed-robust).
- **Diurnal integration**: the deterministic diurnal inversion yields
  exactly ``floor(Λ(duration))`` arrivals — the schedule *integrates*
  the configured rate trace, no sampling noise at all.
- **Cross-process determinism**: the same ``(kind, rate, duration,
  seed, extras)`` produces a byte-identical schedule (equal SHA-256
  digests) in a freshly spawned interpreter — no dependence on hash
  randomization, global RNG state, or wall time.
- **Registry**: every registered arrival kind realizes a schedule.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.loadgen.arrivals import (
    ARRIVAL_KINDS,
    ArrivalSchedule,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)

# -- strategies ---------------------------------------------------------

rates = st.floats(min_value=0.5, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=1.0, max_value=30.0,
                      allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _gaps(schedule):
    """Gaps between consecutive arrivals, the first one from t = 0."""
    times = schedule.times_s
    return [t - prev for prev, t in zip((0.0, *times), times)]

kinds_and_extras = st.one_of(
    st.tuples(st.just("poisson"), st.just({})),
    st.tuples(st.just("fixed"), st.just({})),
    st.tuples(
        st.just("diurnal"),
        st.fixed_dictionaries({
            "amplitude": st.floats(min_value=0.0, max_value=0.95,
                                   allow_nan=False),
            "period_s": st.floats(min_value=1.0, max_value=120.0,
                                  allow_nan=False),
        }),
    ),
    st.tuples(
        st.just("mmpp"),
        st.fixed_dictionaries({
            "burst": st.floats(min_value=1.0, max_value=32.0,
                               allow_nan=False),
            "sojourn_s": st.floats(min_value=0.5, max_value=20.0,
                                   allow_nan=False),
        }),
    ),
)


class TestScheduleInvariants:
    @settings(max_examples=40, deadline=None)
    @given(kind_extras=kinds_and_extras, rate=rates,
           duration=durations, seed=seeds)
    def test_sorted_nonnegative_within_duration(
        self, kind_extras, rate, duration, seed
    ):
        kind, extras = kind_extras
        schedule = make_arrivals(
            kind, rate, seed=seed, **extras
        ).schedule(duration)
        times = list(schedule)
        assert all(t >= 0.0 for t in times)
        assert times == sorted(times)
        assert all(t < duration for t in times)

    @settings(max_examples=40, deadline=None)
    @given(kind_extras=kinds_and_extras, rate=rates,
           duration=durations, seed=seeds)
    def test_inter_arrivals_recompose(
        self, kind_extras, rate, duration, seed
    ):
        kind, extras = kind_extras
        schedule = make_arrivals(
            kind, rate, seed=seed, **extras
        ).schedule(duration)
        gaps = _gaps(schedule)
        assert len(gaps) == len(schedule)
        assert all(g >= 0.0 for g in gaps)
        if gaps:
            assert sum(gaps) == pytest.approx(schedule.times_s[-1])


class TestPoissonMean:
    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(min_value=2.0, max_value=20.0, allow_nan=False),
           seed=seeds)
    def test_mean_gap_converges_to_inverse_rate(self, rate, seed):
        # Long schedule: ~2000 expected arrivals tightens the sample
        # mean to a few percent of 1/rate.
        duration = 2000.0 / rate
        schedule = PoissonArrivals(rate, seed=seed).schedule(duration)
        gaps = _gaps(schedule)
        assert len(gaps) > 500
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.15)


class TestDiurnalIntegration:
    @settings(max_examples=40, deadline=None)
    @given(rate=rates,
           amplitude=st.floats(min_value=0.0, max_value=0.95,
                               allow_nan=False),
           periods=st.integers(min_value=1, max_value=5),
           period_s=st.floats(min_value=2.0, max_value=30.0,
                              allow_nan=False))
    @example(rate=1.1, amplitude=0.0, periods=3, period_s=30.0)
    def test_count_integrates_rate_trace(
        self, rate, amplitude, periods, period_s
    ):
        """Over whole periods the sinusoid integrates out: the schedule
        holds floor(Λ(duration)) ≈ floor(rate * duration) arrivals.

        When Λ(duration) sits exactly on an integer k the final crossing
        lands at t == duration, which the half-open interval [0, D)
        excludes — so exactness is asserted away from that boundary, and
        k - 1 or k arrivals at it. Λ is a float there (1.1 * 90 reads
        99.00000000000001), so k is its nearest integer, not Λ itself.
        """
        process = DiurnalArrivals(
            rate, amplitude=amplitude, period_s=period_s
        )
        duration = periods * period_s
        lam = process.cumulative(duration)
        schedule = process.schedule(duration)
        if abs(lam - round(lam)) > 1e-6:
            assert len(schedule) == math.floor(lam)
        else:
            assert len(schedule) in (round(lam) - 1, round(lam))
        assert math.floor(lam) == pytest.approx(
            math.floor(rate * duration), abs=1
        )

    def test_peak_to_trough_ratio_shapes_gaps(self):
        """High amplitude concentrates arrivals at the peak: the
        smallest gap (peak) is far below the largest (trough)."""
        schedule = DiurnalArrivals(
            10.0, amplitude=0.9, period_s=20.0
        ).schedule(20.0)
        gaps = _gaps(schedule)[1:]
        assert min(gaps) < max(gaps) / 5.0


_SUBPROCESS_DIGEST = """
import json, sys
from repro.loadgen.arrivals import make_arrivals
spec = json.loads(sys.argv[1])
schedule = make_arrivals(
    spec["kind"], spec["rate"], seed=spec["seed"], **spec["extras"]
).schedule(spec["duration"])
print(json.dumps({"digest": schedule.digest(), "count": len(schedule)}))
"""


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("kind,extras", [
        ("poisson", {}),
        ("fixed", {}),
        ("diurnal", {"amplitude": 0.7, "period_s": 12.0}),
        ("mmpp", {"burst": 12.0, "sojourn_s": 3.0}),
    ])
    def test_same_seed_same_bytes_in_fresh_interpreter(self, kind, extras):
        spec = {"kind": kind, "rate": 9.0, "duration": 17.0,
                "seed": 1234, "extras": extras}
        local = make_arrivals(
            kind, spec["rate"], seed=spec["seed"], **extras
        ).schedule(spec["duration"])
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_DIGEST, json.dumps(spec)],
            capture_output=True, text=True, check=True,
        )
        remote = json.loads(proc.stdout)
        assert remote["digest"] == local.digest()
        assert remote["count"] == len(local)

    @settings(max_examples=25, deadline=None)
    @given(kind_extras=kinds_and_extras, rate=rates,
           duration=durations, seed=seeds)
    def test_same_seed_same_bytes_in_process(
        self, kind_extras, rate, duration, seed
    ):
        kind, extras = kind_extras
        a = make_arrivals(kind, rate, seed=seed, **extras).schedule(duration)
        b = make_arrivals(kind, rate, seed=seed, **extras).schedule(duration)
        assert a.times_s == b.times_s
        assert a.digest() == b.digest()


class TestRegistry:
    def test_registry_covers_every_kind(self):
        assert set(ARRIVAL_KINDS) == {"poisson", "fixed", "diurnal", "mmpp"}
        for kind in ARRIVAL_KINDS:
            assert isinstance(
                make_arrivals(kind, 2.0).schedule(1.0), ArrivalSchedule
            )

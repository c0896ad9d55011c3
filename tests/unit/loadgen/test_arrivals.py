"""Unit tests for arrival processes: validation, shape, determinism.

The statistical and cross-process properties live in
``tests/property/test_loadgen_props.py``; these tests pin the concrete
contracts — constructor validation, registry dispatch, schedule
mechanics — with exact, example-based assertions.
"""

import pytest

from repro.loadgen.arrivals import (
    ARRIVAL_KINDS,
    ArrivalSchedule,
    DiurnalArrivals,
    FixedIntervalArrivals,
    MmppArrivals,
    PoissonArrivals,
    make_arrivals,
)


class TestValidation:
    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rejects_nonpositive_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be > 0"):
            PoissonArrivals(rate)

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_rejects_nonpositive_duration(self, duration):
        with pytest.raises(ValueError, match="duration must be > 0"):
            PoissonArrivals(4.0).schedule(duration)

    @pytest.mark.parametrize("amplitude", [-0.1, 1.0, 2.0])
    def test_diurnal_rejects_amplitude_outside_unit_interval(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalArrivals(4.0, amplitude=amplitude)

    def test_diurnal_rejects_nonpositive_period(self):
        with pytest.raises(ValueError, match="period"):
            DiurnalArrivals(4.0, period_s=0.0)

    def test_mmpp_rejects_burst_below_one(self):
        with pytest.raises(ValueError, match="burst"):
            MmppArrivals(4.0, burst=0.5)

    def test_mmpp_rejects_nonpositive_sojourn(self):
        with pytest.raises(ValueError, match="sojourn"):
            MmppArrivals(4.0, sojourn_s=0.0)

    def test_schedule_rejects_unsorted_or_negative_times(self):
        with pytest.raises(ValueError, match="sorted"):
            ArrivalSchedule((2.0, 1.0))
        with pytest.raises(ValueError, match="non-negative"):
            ArrivalSchedule((-1.0, 1.0))


class TestRegistry:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_arrivals("pareto", 4.0)

    def test_unsupported_extras_raise(self):
        with pytest.raises(ValueError, match="does not accept extras"):
            make_arrivals("poisson", 4.0, amplitude=0.5)
        with pytest.raises(ValueError, match="does not accept extras"):
            make_arrivals("diurnal", 4.0, burst=8.0)

    def test_extras_reach_the_process(self):
        process = make_arrivals(
            "diurnal", 4.0, amplitude=0.25, period_s=30.0
        )
        assert process.amplitude == 0.25
        assert process.period_s == 30.0
        process = make_arrivals("mmpp", 4.0, burst=12.0, sojourn_s=2.0)
        assert process.burst == 12.0
        assert process.sojourn_s == 2.0

    def test_every_kind_describes_itself(self):
        for kind in ARRIVAL_KINDS:
            assert make_arrivals(kind, 3.0).describe().startswith(kind)


class TestFixedInterval:
    def test_exact_grid(self):
        schedule = FixedIntervalArrivals(2.0).schedule(2.0)
        assert schedule.times_s == (0.5, 1.0, 1.5)

    def test_endpoint_excluded(self):
        # duration lands exactly on the grid: the [0, D) interval
        # excludes the final tick.
        schedule = FixedIntervalArrivals(1.0).schedule(3.0)
        assert schedule.times_s == (1.0, 2.0)


class TestMmppRates:
    def test_time_average_matches_target(self):
        process = MmppArrivals(10.0, burst=4.0)
        assert process.rate_low == pytest.approx(4.0)
        assert process.rate_high == pytest.approx(16.0)
        # Equal expected sojourns: the mean of the two rates is the target.
        assert (process.rate_low + process.rate_high) / 2 == pytest.approx(
            process.rate
        )


class TestScheduleMechanics:
    def test_digest_is_content_addressed(self):
        a = ArrivalSchedule((0.5, 1.0))
        b = ArrivalSchedule((0.5, 1.0))
        c = ArrivalSchedule((0.5, 1.5))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_empty_schedule(self):
        empty = ArrivalSchedule(())
        assert len(empty) == 0
        assert tuple(empty) == ()
        assert len(empty.digest()) == 64

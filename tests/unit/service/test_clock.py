"""Unit tests for the service clocks (wall and virtual)."""

import pytest

from repro.service.clock import Clock, VirtualClock, WallClock


class TestWallClock:
    def test_reads_monotonic_time(self):
        clock = WallClock()
        assert clock.virtual is False
        a = clock.now_ns()
        b = clock.now_ns()
        assert b >= a > 0

    def test_advance_is_a_noop(self):
        clock = WallClock()
        clock.advance_to_ns(clock.now_ns() + 10**12)  # nothing to assert
        assert clock.now_ns() < 10**18  # still reading the perf counter


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now_ns() == 0
        assert VirtualClock(start_ns=500).now_ns() == 500
        assert VirtualClock().virtual is True

    def test_advance_to_moves_forward_only(self):
        clock = VirtualClock()
        clock.advance_to_ns(1_000)
        assert clock.now_ns() == 1_000
        clock.advance_to_ns(400)  # backward: ignored, stays monotonic
        assert clock.now_ns() == 1_000
        clock.advance_to_ns(1_000)  # same instant: also a no-op
        assert clock.now_ns() == 1_000

    def test_interface_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Clock().now_ns()
        with pytest.raises(NotImplementedError):
            Clock().advance_to_ns(0)

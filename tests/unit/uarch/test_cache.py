"""Unit tests for repro.uarch.cache."""

import numpy as np
import pytest

from repro.trace.events import MemoryEvent
from repro.uarch import cache as cache_mod
from repro.uarch.cache import Cache, CacheHierarchy, HierarchyReplay
from repro.uarch.config import CacheParams
from tests.oracles import columns_from_events


def _cache(size=1024, assoc=2, line=64, name="test"):
    return Cache(CacheParams(size, assoc, line_bytes=line), name)


def _load(line):
    return MemoryEvent("k", np.array([line * 64], dtype=np.uint64), "r")


class TestCacheGeometry:
    def test_n_sets(self):
        params = CacheParams(1024, 2, line_bytes=64)  # 16 lines, 2-way -> 8 sets
        assert params.n_sets == 8

    def test_too_small_for_assoc_rejected(self):
        with pytest.raises(ValueError):
            CacheParams(64, 8, line_bytes=64)

    def test_scaled_preserves_min(self):
        params = CacheParams(1024, 8, line_bytes=64)
        scaled = params.scaled(1000.0)
        assert scaled.size_bytes == 8 * 64  # clamped to assoc * line

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheParams(1024, 2, line_bytes=48))


class TestLruBehaviour:
    def test_cold_miss_then_hit(self):
        c = _cache()
        assert c.access_line(5) is False  # compulsory miss
        assert c.access_line(5) is True  # now resident

    def test_capacity_eviction_lru_order(self):
        c = _cache(size=2 * 64, assoc=2, line=64)  # one set, 2 ways
        c.access_line(0)
        c.access_line(1)
        c.access_line(2)  # evicts 0 (LRU)
        assert c.access_line(1) is True
        assert c.access_line(0) is False  # was evicted

    def test_touch_refreshes_lru(self):
        c = _cache(size=2 * 64, assoc=2, line=64)
        c.access_line(0)
        c.access_line(1)
        c.access_line(0)  # refresh 0; 1 becomes LRU
        c.access_line(2)  # evicts 1
        assert c.access_line(0) is True
        assert c.access_line(1) is False

    def test_set_isolation(self):
        c = _cache(size=4 * 64, assoc=1, line=64)  # 4 direct-mapped sets
        c.access_line(0)  # set 0
        c.access_line(1)  # set 1
        assert c.access_line(0) is True  # set 1 traffic didn't evict set 0

    def test_stats_weighting(self):
        c = _cache()
        c.access_line(1, weight=3.0)
        c.access_line(1, weight=3.0)
        assert c.stats.accesses == 6.0
        assert c.stats.misses == 3.0
        assert c.stats.hits == 3.0

    def test_mpki(self):
        c = _cache()
        c.access_line(1)
        assert c.stats.mpki(1000) == pytest.approx(1.0)
        assert c.stats.mpki(0) == 0.0


class TestHierarchy:
    def _hier(self):
        l1 = _cache(size=2 * 64, assoc=2, name="l1")
        l2 = _cache(size=8 * 64, assoc=4, name="l2")
        return CacheHierarchy([l1, l2]), l1, l2

    def test_miss_propagates(self):
        hier, l1, l2 = self._hier()
        hier.access(np.array([0], dtype=np.uint64))
        assert l1.stats.misses == 1
        assert l2.stats.misses == 1
        assert hier.mem_accesses == 1

    def test_l1_hit_does_not_touch_l2(self):
        hier, l1, l2 = self._hier()
        addr = np.array([0], dtype=np.uint64)
        hier.access(addr)
        hier.access(addr)
        assert l2.stats.accesses == 1  # only the initial miss

    def test_l2_catches_l1_evictions(self):
        hier, l1, l2 = self._hier()
        # Touch 3 lines in L1's single set (2-way): line 0 evicted from L1
        # but stays in L2.
        for line in (0, 1, 2):
            hier.access(np.array([line * 64], dtype=np.uint64))
        mem_before = hier.mem_accesses
        hier.access(np.array([0], dtype=np.uint64))
        assert hier.mem_accesses == mem_before  # L2 hit, no memory access

    def test_consecutive_same_line_collapsed_as_hits(self):
        hier, l1, _ = self._hier()
        addrs = np.array([0, 8, 16, 63], dtype=np.uint64)  # all in line 0
        hier.access(addrs)
        assert l1.stats.accesses == 4.0
        assert l1.stats.misses == 1.0

    def test_empty_batch_noop(self):
        hier, l1, _ = self._hier()
        hier.access(np.array([], dtype=np.uint64))
        assert l1.stats.accesses == 0

    def test_requires_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_mixed_line_sizes_rejected(self):
        """``access`` shifts once by the first level's line size, so a
        level with another size would index the wrong sets."""
        l1 = _cache(size=2 * 64, assoc=2, line=64, name="l1")
        l2 = _cache(size=8 * 128, assoc=4, line=128, name="l2")
        with pytest.raises(ValueError, match="line_bytes"):
            CacheHierarchy([l1, l2])

    def test_stats_snapshot(self):
        hier, _, _ = self._hier()
        hier.access(np.array([0, 64], dtype=np.uint64))
        stats = hier.stats()
        assert stats.levels["l1"].accesses == 2
        assert stats.mem_accesses == 2


class TestHierarchyReplay:
    """Geometry checks and the event-level contract; equality with the
    per-line oracle lives in tests/property/test_cache_replay_props.py."""

    PARAMS = [CacheParams(2 * 64, 2), CacheParams(8 * 64, 4)]

    def test_requires_levels(self):
        with pytest.raises(ValueError):
            HierarchyReplay([])

    def test_mixed_line_sizes_rejected(self):
        with pytest.raises(ValueError, match="line_bytes"):
            HierarchyReplay(
                [CacheParams(2 * 64, 2), CacheParams(8 * 128, 4, line_bytes=128)]
            )

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            HierarchyReplay([CacheParams(1024, 2, line_bytes=48)])

    def test_loads_and_stores_counted_apart(self):
        replay = HierarchyReplay(self.PARAMS)
        read = MemoryEvent("k", np.array([0, 8, 64], dtype=np.uint64), "r", 2.0)
        write = MemoryEvent("k", np.array([0, 128], dtype=np.uint64), "w")
        replay.replay(columns_from_events([read, write]))
        assert replay.accesses == [8.0, 5.0]  # 3 x 2.0 + 2 x 1.0, then the misses
        assert replay.load_misses == [4.0, 4.0]  # lines 0 and 1, cold
        assert replay.store_misses == [1.0, 1.0]  # line 2 cold; line 0 still in L1
        assert (replay.load_mem, replay.store_mem) == (4.0, 1.0)

    def test_state_survives_the_window_cut(self):
        replay = HierarchyReplay(self.PARAMS)
        trace = columns_from_events([_load(0), _load(1), _load(2), _load(0)])
        replay.replay(trace, 0, 3)  # 0 leaves L1, stays in L2
        replay.replay(trace, 3, 4)
        assert replay.load_misses == [4.0, 3.0]

    def test_held_lines_keep_their_own_traces_weights(self):
        """L2 holds L1's misses until they fill a window or a trace ends, so
        lines 0 and 1 of the first trace are still held when the second
        trace arrives; they must count with their own events' weights and
        kinds, not with the second trace's events at the same indices."""
        replay = HierarchyReplay(self.PARAMS)
        read = MemoryEvent("k", np.array([0, 64], dtype=np.uint64), "r", 2.0)
        first = columns_from_events([read, _load(2)])
        replay.replay(first, 0, 1)  # not the trace's end: L2 runs nothing yet
        writes = [MemoryEvent("k", np.array([a], dtype=np.uint64), "w") for a in (320, 384)]
        replay.replay(columns_from_events(writes))
        assert replay.accesses == [6.0, 6.0]
        assert replay.load_misses == [4.0, 4.0]
        assert replay.store_misses == [2.0, 2.0]

    def test_the_window_that_ends_the_trace_runs_every_level(self, monkeypatch):
        """The lower levels' held lines run inside the call that replays the
        trace's last memory event (so inside that window's
        ``simulate.dcache`` span), not at the first counter read after it."""
        replay = HierarchyReplay(self.PARAMS)
        trace = columns_from_events([_load(0), _load(1), _load(2)])
        replay.replay(trace, 0, 2)
        replay.replay(trace, 2, 3)

        def unreachable(*args):
            raise AssertionError("a level ran after the trace's last window")

        monkeypatch.setattr(cache_mod, "_lru_window", unreachable)
        assert replay.load_misses == [3.0, 3.0]

    @pytest.mark.parametrize(
        "lo, hi", [(-1, 3), (-3, -1), (0, 6), (2, 1), (4, 4), (0, -1)]
    )
    def test_window_outside_the_trace_rejected(self, lo, hi):
        """A window is ``0 <= lo <= hi <= n_memory``; anything else used to
        replay nothing, or fail inside NumPy with a broadcast or index
        error."""
        replay = HierarchyReplay(self.PARAMS)
        trace = columns_from_events([_load(0), _load(1), _load(2)])
        with pytest.raises(ValueError, match=rf"\[{lo}, {hi}\).*n_memory = 3"):
            replay.replay(trace, lo, hi)
        assert replay.accesses == [0.0, 0.0]

    def test_window_bounds_are_inclusive(self):
        replay = HierarchyReplay(self.PARAMS)
        trace = columns_from_events([_load(0), _load(1), _load(2)])
        replay.replay(trace, 3, 3)  # the empty window at the end
        replay.replay(trace, 0, 3)
        assert replay.load_misses == [3.0, 3.0]

    def test_empty_window_and_empty_events_are_noops(self):
        replay = HierarchyReplay(self.PARAMS)
        replay.replay(columns_from_events([]))
        empty = MemoryEvent("k", np.array([], dtype=np.uint64), "r")
        trace = columns_from_events([_load(0), empty, empty])
        replay.replay(trace, 1, 1)
        replay.replay(trace, 1, 3)
        assert replay.accesses == [0.0, 0.0]
        assert replay.load_mem == replay.store_mem == 0.0

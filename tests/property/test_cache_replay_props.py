"""The batched data-hierarchy replay against the per-line oracle.

``HierarchyReplay`` is what ``simulate()`` runs; ``Cache.access_line`` /
``CacheHierarchy.access`` are the model it must reproduce. Four groups:

- **Equivalence** (no tolerance): every level's accesses, load misses and
  store misses and the load/store memory accesses equal the oracle loop —
  ``CacheHierarchy.access`` per event with per-event miss snapshots, the
  loop ``simulate()`` ran before the batched replay, kept here — on
  generated streams (small line alphabets, non-power-of-two set counts,
  fractional weights, every window split) and on a recorded QUICK trace
  under all five Table IV configurations;
- **The oracle is off the runtime path**: ``simulate()`` runs with
  ``Cache.access_line`` and ``CacheHierarchy.access`` replaced by a raise;
- **Metamorphic laws** of the batched path itself: LRU inclusion in
  associativity, miss/access conservation between levels, replay
  determinism, window-cut invariance, and ``freq_hz`` scaling time only;
- **Flush points**: a lower level runs what it holds once it holds
  ``REPLAY_WINDOW_ADDRS`` lines, at the trace's end, or when a counter is
  read. With that threshold at 1, 7 or its real value the counters equal
  the oracle's, and a counter read mid-stream reads the oracle's counters
  so far and moves no final counter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.options import EncoderOptions
from repro.experiments.runner import QUICK
from repro.profiling.perf import record_trace
from repro.trace.events import MemoryEvent
from repro.uarch import cache as cache_mod
from repro.uarch.cache import (
    REPLAY_WINDOW_ADDRS,
    Cache,
    CacheHierarchy,
    HierarchyReplay,
)
from repro.uarch.config import CacheParams
from repro.uarch.configs import CONFIG_NAMES, config_by_name
from repro.uarch.simulator import simulate
from repro.video.vbench import cached_video
from tests.oracles import columns_from_events

LINE = 64
N_SETS = (1, 2, 3, 10, 21, 170)
WEIGHTS = (1.0, 2.0, 16.0, 0.3, 2.5)
WHOLE_WEIGHTS = (1.0, 2.0, 16.0)  # sums of these are exact in any order


@dataclass
class Counters:
    accesses: list[float]
    load_misses: list[float]
    store_misses: list[float]
    load_mem: float
    store_mem: float


def oracle(params: list[CacheParams], events: list[MemoryEvent]) -> Counters:
    """One ``CacheHierarchy.access`` per event, load/store misses from the
    per-event snapshots of each level's running miss total."""
    levels = [Cache(p, f"l{i}") for i, p in enumerate(params)]
    hierarchy = CacheHierarchy(levels)
    load_misses = [0.0] * len(levels)
    store_misses = [0.0] * len(levels)
    load_mem = store_mem = 0.0
    for event in events:
        before = [c.stats.misses for c in levels]
        mem_before = hierarchy.mem_accesses
        hierarchy.access(event.addrs, event.weight)
        target = load_misses if event.kind == "r" else store_misses
        for i, (cache, b) in enumerate(zip(levels, before)):
            target[i] += cache.stats.misses - b
        if event.kind == "r":
            load_mem += hierarchy.mem_accesses - mem_before
        else:
            store_mem += hierarchy.mem_accesses - mem_before
    return Counters(
        [c.stats.accesses for c in levels],
        load_misses, store_misses, load_mem, store_mem,
    )


def batched(
    params: list[CacheParams], events: list[MemoryEvent], cuts=()
) -> Counters:
    """The same events through ``HierarchyReplay``, one window per gap
    between consecutive ``cuts`` (event indices)."""
    replay = HierarchyReplay(params)
    trace = columns_from_events(events)
    edges = [0, *sorted(cuts), len(events)]
    for lo, hi in zip(edges, edges[1:]):
        replay.replay(trace, lo, hi)
    return Counters(
        replay.accesses, replay.load_misses, replay.store_misses,
        replay.load_mem, replay.store_mem,
    )


def size_cuts(events: list[MemoryEvent], bound: int) -> list[int]:
    """Window cuts where the simulator puts them: after the event that
    takes a window to ``bound`` addresses."""
    cuts, addrs = [], 0
    for i, event in enumerate(events):
        addrs += event.addrs.size
        if addrs >= bound:
            cuts.append(i + 1)
            addrs = 0
    return cuts


# -- strategies ---------------------------------------------------------

level_params = st.builds(
    lambda n_sets, assoc: CacheParams(n_sets * assoc * LINE, assoc, line_bytes=LINE),
    st.sampled_from(N_SETS),
    st.integers(min_value=1, max_value=16),
)
hierarchies = st.lists(level_params, min_size=1, max_size=4)


@st.composite
def event_streams(draw, weights=WEIGHTS):
    """Mixed load/store events over a small line alphabet: lines recur at
    every distance, and two- and three-line alphabets give long ping-pong
    runs. Some events touch every line several times in a row (collapsed
    into L1 hits); byte offsets vary so the line shift is exercised."""
    alphabet = draw(st.integers(min_value=1, max_value=48))
    spread = draw(st.sampled_from((1, 7, 170)))  # consecutive ids -> set stride
    line_lists = draw(
        st.lists(
            st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=64),
            min_size=1, max_size=24,
        )
    )
    events = []
    for lines in line_lists:
        offset = draw(st.integers(0, LINE - 1))
        lines = np.repeat(lines, draw(st.sampled_from((1, 1, 2, 5))))
        addrs = lines.astype(np.uint64) * np.uint64(spread * LINE)
        events.append(
            MemoryEvent(
                "k", addrs + np.uint64(offset),
                draw(st.sampled_from("rw")), draw(st.sampled_from(weights)),
            )
        )
    return events


def cut_sets(events):
    return st.sets(st.integers(1, max(1, len(events) - 1)), max_size=8)


# -- equivalence --------------------------------------------------------


class TestEqualsOracle:
    @settings(max_examples=150, deadline=None)
    @given(hierarchies, event_streams(), st.data())
    def test_generated_streams_every_split(self, params, events, data):
        expected = oracle(params, events)
        drawn = data.draw(cut_sets(events))
        per_event = range(1, len(events))
        for cuts in ((), per_event, drawn):
            assert batched(params, events, cuts) == expected

    @pytest.mark.parametrize("assoc", [2, 3, 8])
    @pytest.mark.parametrize("n_sets", [1, 3, 10])
    def test_many_accesses_wait_behind_long_few_line_runs(self, n_sets, assoc):
        """Each event touches a waiting line and then ping-pongs over
        ``assoc - 1`` or ``assoc`` hot lines of the same set, so the next
        touch of the waiting line hits or misses only at the far end of a
        long walk, and dozens of such walks are open at once: the shrinking
        index walk and the direct straggler count both run, which a
        generated stream rarely gets to."""
        rng = np.random.default_rng(n_sets * 100 + assoc)
        hot = np.arange(1, assoc + 1)
        events = []
        for i in range(90):
            ways = hot[: assoc - int(rng.integers(2))]
            run = ways[rng.integers(0, ways.size, size=int(rng.integers(20, 300)))]
            lines = np.concatenate(([100 + i % 2], run)) * n_sets  # all in set 0
            events.append(
                MemoryEvent(
                    "k", lines.astype(np.uint64) * np.uint64(LINE),
                    "rw"[i % 3 == 0], float(rng.choice(WEIGHTS)),
                )
            )
        params = [
            CacheParams(n_sets * assoc * LINE, assoc),
            CacheParams(21 * 16 * LINE, 16),
        ]
        expected = oracle(params, events)
        assert 0 < expected.load_misses[0] < expected.accesses[0] / 4
        assert batched(params, events) == expected
        assert batched(params, events, range(40, len(events), 40)) == expected

    def test_addresses_too_wide_to_pack(self):
        """Line addresses spanning most of 64 bits take the plain stable
        sort instead of the packed one; same counters."""
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 1 << 62, size=24, dtype=np.uint64)
        events = [
            MemoryEvent("k", pool[rng.integers(0, 24, size=50)], "rw"[i % 2], 0.3)
            for i in range(12)
        ]
        params = [CacheParams(3 * 4 * LINE, 4), CacheParams(10 * 8 * LINE, 8)]
        assert batched(params, events, (5,)) == oracle(params, events)


@pytest.fixture(scope="module")
def quick_trace():
    """One traced encode at QUICK geometry (the sweeps' and perfbench's)."""
    video = cached_video(
        QUICK.sweep_video, width=QUICK.width, height=QUICK.height,
        n_frames=QUICK.n_frames,
    )
    _, stream, program = record_trace(video, EncoderOptions(crf=23, refs=2))
    return stream, program


def data_events(stream) -> list[MemoryEvent]:
    return [e for e in stream.events if isinstance(e, MemoryEvent)]


class TestRecordedTrace:
    @pytest.mark.parametrize("scale", [48.0, 1.0])
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_table_iv_configs_equal_oracle(self, quick_trace, name, scale):
        stream, program = quick_trace
        config = config_by_name(name, data_capacity_scale=scale)
        params = config.effective_data_levels()
        events = data_events(stream)
        expected = oracle(params, events)
        cuts = size_cuts(events, REPLAY_WINDOW_ADDRS)
        assert cuts, "the trace must span several simulator windows"
        assert batched(params, events, cuts) == expected
        assert batched(params, events, size_cuts(events, 3000)) == expected

        # ... and simulate() reports exactly those numbers.
        report = simulate(stream, program, config)
        kilo = stream.total_instructions / 1000.0
        for level, key in enumerate(("l1d", "l2d", "l3d")):
            misses = expected.load_misses[level] + expected.store_misses[level]
            assert report.mpki[key] == misses / kilo
        assert report.extra["mem_lines"] == expected.load_mem + expected.store_mem

    def test_simulate_never_reaches_the_oracle(self, quick_trace, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("per-line oracle called from simulate()")

        monkeypatch.setattr(Cache, "access_line", unreachable)
        monkeypatch.setattr(CacheHierarchy, "access", unreachable)
        stream, program = quick_trace
        report = simulate(stream, program, config_by_name("be_op1"))
        assert report.mpki["l1d"] > 0

    def test_freq_scales_seconds_and_nothing_else(self, quick_trace):
        stream, program = quick_trace
        config = config_by_name("baseline", data_capacity_scale=48.0)
        base = simulate(stream, program, config)
        slow = simulate(stream, program, config, freq_hz=1.0e9)
        assert slow.seconds == slow.cycles / 1.0e9
        assert slow.seconds > base.seconds
        assert replace(slow, seconds=base.seconds) == base


# -- metamorphic laws of the batched path -------------------------------


class TestReplayLaws:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(N_SETS), st.integers(1, 15),
        event_streams(weights=WHOLE_WEIGHTS),
    )
    def test_misses_non_increasing_in_associativity(self, n_sets, assoc, events):
        """LRU inclusion at a fixed set count: every hit at ``assoc`` ways
        is a hit at ``assoc + 1``."""
        def misses(ways):
            c = batched([CacheParams(n_sets * ways * LINE, ways)], events)
            return c.load_misses[0], c.store_misses[0]

        narrow, wide = misses(assoc), misses(assoc + 1)
        assert wide[0] <= narrow[0] and wide[1] <= narrow[1]

    @settings(max_examples=60, deadline=None)
    @given(hierarchies, event_streams(weights=WHOLE_WEIGHTS))
    def test_a_miss_is_an_access_one_level_down_and_nowhere_else(
        self, params, events
    ):
        c = batched(params, events)
        assert c.accesses[0] == sum(e.weight * e.addrs.size for e in events)
        misses = [ld + st_ for ld, st_ in zip(c.load_misses, c.store_misses)]
        assert c.accesses[1:] == misses[:-1]
        assert c.load_mem + c.store_mem == misses[-1]
        assert all(m <= a for m, a in zip(misses, c.accesses))

    @settings(max_examples=60, deadline=None)
    @given(hierarchies, event_streams(), st.data())
    def test_replay_is_deterministic_and_cut_invariant(self, params, events, data):
        once = batched(params, events)
        assert batched(params, events) == once  # fresh state, same counters
        a = data.draw(cut_sets(events))
        b = data.draw(cut_sets(events))
        assert batched(params, events, a) == batched(params, events, b) == once


class TestFlushPoints:
    COUNTERS = ("accesses", "load_misses", "store_misses", "load_mem", "store_mem")

    @pytest.mark.parametrize("threshold", [1, 7, REPLAY_WINDOW_ADDRS])
    @settings(max_examples=60, deadline=None)
    @given(hierarchies, event_streams(), st.data())
    def test_any_threshold_equals_oracle(self, threshold, params, events, data):
        """1 runs every level on each piece handed down, 7 splits a window's
        misses over several runs of a level, the real value holds whole
        windows until the trace ends: one set of counters, the oracle's."""
        cuts = data.draw(cut_sets(events))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cache_mod, "REPLAY_WINDOW_ADDRS", threshold)
            assert batched(params, events, cuts) == oracle(params, events)

    @pytest.mark.parametrize("threshold", [1, 7, REPLAY_WINDOW_ADDRS])
    @settings(max_examples=60, deadline=None)
    @given(hierarchies, event_streams(), st.data())
    def test_a_counter_read_mid_stream_moves_no_final_counter(
        self, threshold, params, events, data
    ):
        """A read runs every level's held lines early: it reads the oracle's
        counters of the events so far, and replaying on from there gives
        the counters of never having read."""
        cuts = sorted(data.draw(cut_sets(events)))
        reads = data.draw(
            st.lists(st.tuples(st.sampled_from([0, *cuts]), st.sampled_from(self.COUNTERS)))
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cache_mod, "REPLAY_WINDOW_ADDRS", threshold)
            replay = HierarchyReplay(params)
            trace = columns_from_events(events)
            edges = [0, *cuts, len(events)]
            for lo, hi in zip(edges, edges[1:]):
                for at, name in reads:
                    if at == lo:  # a read just before the window at ``lo``
                        so_far = oracle(params, events[:lo])
                        assert getattr(replay, name) == getattr(so_far, name)
                replay.replay(trace, lo, hi)
            read_mid_stream = Counters(
                replay.accesses, replay.load_misses, replay.store_misses,
                replay.load_mem, replay.store_mem,
            )
            assert read_mid_stream == batched(params, events, cuts)
        assert read_mid_stream == oracle(params, events)

"""The column-driven simulator against the per-event walk it replaced.

``simulate()`` reads a trace's columns: the analytic i-cache over the
kernel-id array, the data hierarchy over slices of the address column,
the predictor over per-site outcome arrays with every history length from
one doubling pass. The per-event forms — one ``invoke`` per kernel event,
one ``record`` per branch event, windows cut one event at a time, the
sliding-window pattern build, the per-line hierarchy walk — are kept in
``tests/oracles.py`` and swapped into the *same* ``simulate()`` by
``per_event_models()``, so "equal" means the whole ``SimReport``, every
float with ``==``.

- **Equivalence**: real traces (integer, sampled and fractional weights)
  on ``baseline`` and the four Table IV variants, with the replay window
  at 1, 7 and ``1 << 15`` addresses; the window cutter on its own on
  generated event lists; the doubling pass against the sliding window for
  every sequence length 0..70, every history the predictors use, and
  random longer sequences.
- **Cached views cannot leak**: a stream simulated twice and a fresh copy
  simulated once give identical reports, on every config in any order (a
  view keyed by anything but the trace would break this); a sealed trace
  takes no more events, and a recorder that is fed again hands out a new
  stream.
- **Laws on real traces**: Top-down categories sum to the slot budget;
  ``sim.events.*`` counters and the ``simulate -> simulate.window ->
  simulate.dcache`` span tree keep names, counts and attributes.
  (``freq_hz`` scaling time and nothing else, and the data-side laws, are
  in ``test_cache_replay_props.py``.)
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.options import EncoderOptions
from repro.experiments.runner import QUICK
from repro.obs import session as obs
from repro.profiling.perf import record_trace
from repro.trace.events import (
    BranchEvent,
    KernelEvent,
    MemoryEvent,
    TraceColumns,
    TraceStream,
)
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from repro.uarch import simulator as simulator_mod
from repro.uarch.branch import BranchModel, two_level_mispredicts
from repro.uarch.cache import REPLAY_WINDOW_ADDRS
from repro.uarch.configs import CONFIG_NAMES, config_by_name
from repro.uarch.simulator import simulate
from repro.video.vbench import cached_video
from tests.oracles import (
    columns_from_events,
    event_windows,
    per_event_models,
    sliding_two_level_mispredicts,
)

SCALE = 48.0
WINDOWS = (1, 7, 1 << 15)
FRACTIONS = (0.3, 2.5, 1.0, 16.0, 1 / 3)


def _configs():
    return [config_by_name(name, data_capacity_scale=SCALE) for name in CONFIG_NAMES]


def _totals(stream: TraceStream) -> dict:
    return dict(
        instr=stream.instr,
        instr_by_kernel=dict(stream.instr_by_kernel),
        kernel_calls=dict(stream.kernel_calls),
        n_frames=stream.n_frames,
    )


def _fresh_copy(stream: TraceStream) -> TraceStream:
    """The same trace rebuilt from its events: new columns, no cached view."""
    return TraceStream(columns_from_events(stream.events), **_totals(stream))


@pytest.fixture(scope="module")
def traces(busy_video):
    """One encode recorded exactly and sampled, plus a copy whose event
    weights are fractional and differ event to event."""
    program = build_program()
    options = EncoderOptions(crf=20, refs=2, bframes=1, trellis=1)
    _, exact, _ = record_trace(busy_video, options, program=program)
    _, sampled, _ = record_trace(busy_video, options, program=program, sample=3)
    fractional = TraceStream(
        columns_from_events(
            [
                replace(event, weight=FRACTIONS[i % len(FRACTIONS)])
                for i, event in enumerate(exact.events)
            ]
        ),
        **_totals(exact),
    )
    return program, {"exact": exact, "sampled": sampled, "fractional": fractional}


# -- equivalence --------------------------------------------------------


class TestEqualsPerEventWalk:
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("kind", ["exact", "sampled", "fractional"])
    def test_simulate_equals_the_oracle_walk(self, traces, monkeypatch, kind, window):
        program, streams = traces
        stream = streams[kind]
        monkeypatch.setattr(simulator_mod, "REPLAY_WINDOW_ADDRS", window)
        for config in _configs():
            report = simulate(stream, program, config)
            with per_event_models():
                expected = simulate(stream, program, config)
            assert report == expected
            assert report.cycles > 0 and report.branch.mispredicts > 0
            assert report.extra["itlb_misses"] > 0 and report.extra["mem_lines"] > 0

    def test_quick_trace_at_the_real_window(self):
        """A sweep-sized trace spans several windows of the real size."""
        video = cached_video(
            QUICK.sweep_video, width=QUICK.width, height=QUICK.height,
            n_frames=QUICK.n_frames,
        )
        _, stream, program = record_trace(
            video, EncoderOptions(crf=23, refs=2), sample=QUICK.sample
        )
        assert len(list(stream.columns.windows(REPLAY_WINDOW_ADDRS))) > 2
        for config in _configs():
            report = simulate(stream, program, config)
            with per_event_models():
                assert simulate(stream, program, config) == report

    def test_the_oracle_walk_really_is_per_event(self, traces, monkeypatch):
        """Inside ``per_event_models()`` none of the column views runs."""
        program, streams = traces

        def unreachable(*args, **kwargs):
            raise AssertionError("column view used by the per-event walk")

        with per_event_models():
            monkeypatch.setattr(TraceColumns, "data_lines", unreachable)
            monkeypatch.setattr(TraceColumns, "kernel_reuse", unreachable)
            monkeypatch.setattr(BranchModel, "record", _counting(BranchModel.record))
            simulate(streams["exact"], program, _configs()[0])
        assert BranchModel.record.calls == streams["exact"].columns.n_branch

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(KernelEvent("k", 1.0)),
                st.just(BranchEvent("k:s", np.array([True]))),
                st.integers(0, 9).map(
                    lambda n: MemoryEvent("k", np.arange(n, dtype=np.uint64), "r")
                ),
            ),
            max_size=40,
        ),
        st.integers(1, 25),
    )
    def test_windows_cut_where_the_event_walk_cuts(self, events, bound):
        windows = list(columns_from_events(events).windows(bound))
        expected = list(event_windows(events, bound))
        assert [(w.n_events, w.n_addrs) for w in windows] == [
            (len(window), n_addrs) for window, n_addrs in expected
        ]
        memory = [e for e in events if isinstance(e, MemoryEvent)]
        lo = 0
        for got, (window, _) in zip(windows, expected):
            inside = [e for e in window if isinstance(e, MemoryEvent)]
            assert got.mem_lo == lo and memory[got.mem_lo : got.mem_hi] == inside
            lo = got.mem_hi
        assert lo == len(memory)


def _counting(function):
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return function(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


HISTORIES = (0, 1, 2, 3, 4, 6, 8, 16, 31, 32, 33, 62)


class TestDoublingPass:
    @pytest.mark.parametrize("history", HISTORIES)
    def test_every_length_up_to_70(self, history):
        rng = np.random.default_rng(history)
        for n in range(71):
            for outcomes in (
                rng.random(n) < 0.5,
                rng.random(n) < 0.1,
                np.resize([True, True, False], n),
                np.ones(n, dtype=bool),
            ):
                assert two_level_mispredicts(outcomes, history) == (
                    sliding_two_level_mispredicts(outcomes, history)
                ), (n, history)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(71, 6000),
        st.sampled_from(HISTORIES),
        st.sampled_from([0.5, 0.05, 0.95]),
        st.integers(1, 40),
    )
    def test_longer_sequences(self, seed, n, history, bias, period):
        rng = np.random.default_rng(seed)
        noisy_periodic = np.resize(rng.random(period) < 0.5, n) ^ (rng.random(n) < 0.02)
        for outcomes in (rng.random(n) < bias, noisy_periodic):
            assert two_level_mispredicts(outcomes, history) == (
                sliding_two_level_mispredicts(outcomes, history)
            )

    def test_history_too_wide_for_a_key_is_refused(self):
        with pytest.raises(ValueError, match="history_bits"):
            two_level_mispredicts(np.ones(100, dtype=bool), 63)

    @pytest.mark.parametrize("kind", ["static", "pentium_m", "tage"])
    def test_one_record_per_site_equals_one_per_event(self, traces, kind):
        """The simulator hands the predictor a site's whole sequence with
        the mean weight; the per-event feed gives the same statistics."""
        _, streams = traces
        stream = streams["fractional"]
        by_site, by_event = BranchModel(kind), BranchModel(kind)
        for site, outcomes, weight in stream.columns.site_outcomes:
            by_site.record(site, outcomes, weight)
        for event in stream.events:
            if isinstance(event, BranchEvent):
                by_event.record(event.site, event.outcomes, event.weight)
        for hints in (False, True):
            assert by_site.evaluate(
                total_branches=stream.total_branches, branch_hints=hints
            ) == by_event.evaluate(
                total_branches=stream.total_branches, branch_hints=hints
            )


# -- cached views cannot leak -------------------------------------------


class TestCachedViews:
    def test_twice_and_a_fresh_copy_give_identical_reports(self, traces):
        """Views are cached per trace, line size and code layout — never per
        cache geometry, latency or predictor, and never a result: replaying
        on the other configs in between must change nothing."""
        program, streams = traces
        stream = streams["sampled"]
        configs = _configs()
        first = [simulate(stream, program, c) for c in configs]
        again = [simulate(stream, program, c) for c in reversed(configs)][::-1]
        fresh = [simulate(_fresh_copy(stream), program, c) for c in configs]
        assert first == again == fresh
        assert len({report.cycles for report in first}) == len(configs)

    def test_views_are_keyed_by_line_size_and_layout_only(self, traces):
        program, streams = traces
        stream = _fresh_copy(streams["exact"])
        for config in _configs():
            simulate(stream, program, config)
        assert sorted(key[0] for key in stream.columns._keyed) == [
            "data_lines", "kernel_reuse", "kernel_reuse"  # lines and pages
        ]
        assert ("data_lines", 6) in stream.columns._keyed

    def test_another_layout_gets_its_own_gaps(self, traces):
        """Packing the hot code changes every fetch footprint: the gaps
        cached for the stock layout must not be served for it."""
        from repro.optim.autofdo import autofdo_optimize
        from repro.optim.profile import collect_profile

        program, streams = traces
        stream = streams["exact"]
        packed = autofdo_optimize(program, collect_profile([stream]))
        config = _configs()[0]
        stock = simulate(stream, program, config)
        assert simulate(stream, packed, config) == simulate(
            _fresh_copy(stream), packed, config
        )
        assert simulate(stream, program, config) == stock
        assert simulate(stream, packed, config).mpki["l1i"] < stock.mpki["l1i"]

    def test_events_after_a_simulate_make_a_new_stream(self, busy_video):
        program = build_program()
        recorder = RecordingTracer(program)
        recorder.kernel("dct4", 16, reads=np.arange(0, 4096, 64, dtype=np.uint64))
        recorder.kernel("quant", 16, branches={"nz": np.array([True, False] * 8)})
        config = _configs()[0]
        before = recorder.stream
        report = simulate(before, program, config)
        assert before.columns._keyed  # views are cached now

        recorder.kernel("dct4", 16, reads=np.arange(8192, 16384, 64, dtype=np.uint64))
        after = recorder.stream
        assert after is not before and after.columns is not before.columns
        assert not after.columns._keyed
        grown = simulate(after, program, config)
        assert grown == simulate(_fresh_copy(after), program, config)
        assert grown.extra["mem_lines"] > report.extra["mem_lines"]
        # ... and the stream handed out earlier still is the earlier trace.
        assert simulate(before, program, config) == report
        with pytest.raises(AttributeError):
            before.events.append(KernelEvent("dct4", 1.0))


# -- laws on real traces ------------------------------------------------


class TestLaws:
    @pytest.mark.parametrize("kind", ["exact", "sampled", "fractional"])
    def test_topdown_categories_sum_to_the_slot_budget(self, traces, kind):
        program, streams = traces
        for config in _configs():
            report = simulate(streams[kind], program, config)
            td = report.topdown
            total = td.retiring + td.bad_speculation + td.frontend_bound + td.backend_bound
            assert total == pytest.approx(100.0, rel=1e-9)
            assert td.memory_bound + td.core_bound == pytest.approx(
                td.backend_bound, rel=1e-9
            )
            slots = report.cycles * config.dispatch_width
            assert td.retiring / 100.0 * slots == pytest.approx(
                report.instructions, rel=1e-9
            )

    @pytest.mark.parametrize("window", [7, 300])
    def test_counters_and_span_tree_are_the_per_event_walks(
        self, traces, monkeypatch, window
    ):
        program, streams = traces
        stream = streams["sampled"]
        config = config_by_name("be_op1", data_capacity_scale=SCALE)
        monkeypatch.setattr(simulator_mod, "REPLAY_WINDOW_ADDRS", window)

        def observed():
            with obs.telemetry_session() as tel:
                simulate(stream, program, config)
            by_id = {s.span_id: s for s in tel.spans.finished}
            tree = [
                (s.name, by_id[s.parent_id].name if s.parent_id else None, s.attrs)
                for s in sorted(tel.spans.finished, key=lambda s: s.span_id)
            ]
            return tel.metrics.as_dict(), tree

        metrics, tree = observed()
        with per_event_models():
            expected_metrics, expected_tree = observed()
        assert metrics == expected_metrics
        assert tree == expected_tree

        columns = stream.columns
        assert metrics["sim.events.kernel"] == columns.n_kernel
        assert metrics["sim.events.memory"] == columns.n_memory
        assert metrics["sim.events.branch"] == columns.n_branch
        assert tree[0] == (
            "simulate", None, {"config": "be_op1", "n_events": columns.n_events}
        )
        windows = [node for node in tree if node[0] == "simulate.window"]
        flushes = [node for node in tree if node[0] == "simulate.dcache"]
        assert len(windows) > 1 and all(parent == "simulate" for _, parent, _ in windows)
        assert [attrs["index"] for _, _, attrs in windows] == list(range(len(windows)))
        assert sum(attrs["events"] for _, _, attrs in windows) == columns.n_events
        assert all(parent == "simulate.window" for _, parent, _ in flushes)
        assert all(attrs["config"] == "be_op1" for _, _, attrs in flushes)
        assert sum(attrs["lines"] for _, _, attrs in flushes) == columns.mem_addrs.size

"""The sweep cell's cache key, held byte-identical to ``content_key``.

``PointSpec.cache_key`` composes its canonical text around a config
fragment serialized once per process
(:class:`~repro.experiments.cache.FixedComponentKey`) instead of calling
:func:`~repro.experiments.cache.content_key`. One changed byte would turn
every existing on-disk cache cold, so the composed key is pinned to a
golden value, checked against ``content_key`` on generated cells, and a
cache filled through ``content_key`` must serve a warm sweep.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import repro
from repro.codec.options import EncoderOptions
from repro.codec.presets import PRESET_NAMES, preset_options
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    FixedComponentKey,
    ResultCache,
    SweepRecord,
    content_key,
)
from repro.experiments.runner import QUICK, ExperimentScale, PointSpec, SweepRunner
from repro.obs.session import telemetry_session
from repro.profiling.counters import CounterSet
from repro.uarch.configs import baseline_config

#: ``PointSpec(QUICK, "cricket", crf=23, refs=1, preset="medium").cache_key()``
#: under repro 2.1.0 and cache schema 3, as ``content_key`` builds it (under
#: schema 1 it was ``229668db...``, under schema 2 ``1e20ebaf...``, under
#: 2.0.0 and schema 3 ``3abbb449...``). Changes only with a ``__version__``
#: or ``CACHE_SCHEMA_VERSION`` bump.
GOLDEN_KEY = "0dd50ec18e73bdfac64eb39986fc0bcc21c2f41de0ac1a3a42773931f7537430"

#: ``CounterSet``'s fields in the order a sweep entry's counter block stores
#: them, as of cache schema 2 (unchanged in schema 3).
COUNTER_FIELDS = (
    "time_seconds", "psnr_db", "bitrate_kbps",
    "retiring", "bad_speculation", "frontend_bound", "backend_bound",
    "memory_bound", "core_bound",
    "branch_mpki", "l1d_mpki", "l2_mpki", "l3_mpki", "l1i_mpki", "itlb_mpki",
    "stall_any_pki", "stall_rob_pki", "stall_rs_pki", "stall_sb_pki",
    "cycles", "instructions", "ipc",
)


def _cell(scale: ExperimentScale, video: str, options: EncoderOptions) -> PointSpec:
    return PointSpec(
        scale=scale, video=video, crf=options.crf, refs=options.refs,
        preset=options.preset_name, options=options,
    )


def _content_key(spec: PointSpec) -> str:
    """The key as ``content_key`` builds it from the cell's components."""
    scale = spec.scale
    return content_key(
        "sweep",
        video={"name": spec.video, "width": scale.width,
               "height": scale.height, "n_frames": scale.n_frames},
        options=spec.options,
        sim={"sample": scale.sample,
             "data_capacity_scale": scale.data_capacity_scale},
        config=baseline_config(),
    )


scales = st.builds(
    ExperimentScale,
    name=st.sampled_from(["quick", "medium", "full"]),
    width=st.integers(min_value=16, max_value=4096),
    height=st.integers(min_value=16, max_value=4096),
    n_frames=st.integers(min_value=1, max_value=600),
    sample=st.integers(min_value=1, max_value=64),
    # 48 and 48.0 serialize differently: both must key like content_key.
    data_capacity_scale=st.one_of(
        st.integers(min_value=1, max_value=512),
        st.floats(min_value=1.0, max_value=512.0),
    ),
)

option_sets = st.one_of(
    st.builds(
        preset_options,
        st.sampled_from(PRESET_NAMES),
        crf=st.integers(min_value=0, max_value=51),
        refs=st.integers(min_value=1, max_value=16),
    ),
    st.builds(
        EncoderOptions,
        crf=st.integers(min_value=0, max_value=51),
        refs=st.integers(min_value=1, max_value=16),
        rc_mode=st.sampled_from(["crf", "cqp", "abr"]),
        bitrate_kbps=st.one_of(
            st.integers(min_value=1, max_value=20000),
            st.floats(min_value=0.5, max_value=2e4),
        ),
        deblock=st.tuples(st.integers(0, 1), st.integers(-6, 6)),
        me=st.sampled_from(["dia", "hex", "umh", "esa"]),
        subme=st.integers(min_value=0, max_value=11),
        chroma=st.booleans(),
        preset_name=st.text(max_size=8),
    ),
)

clip_names = st.one_of(
    st.sampled_from([
        "cricket", 'say "cheese"', "back\\slash", "crème brûlée", "東京",
        "🎬 take 2", "tab\tand\nnewline", "",
    ]),
    st.text(max_size=16),
)


class TestSweepKey:
    def test_golden_key(self):
        assert (repro.__version__, CACHE_SCHEMA_VERSION) == ("2.1.0", 3), (
            "a version bump changes every key: re-pin GOLDEN_KEY"
        )
        spec = _cell(QUICK, "cricket", preset_options("medium", crf=23, refs=1))
        assert spec.cache_key() == GOLDEN_KEY
        assert _content_key(spec) == GOLDEN_KEY

    def test_counter_block_layout_is_pinned(self):
        """A sweep entry stores the counters by position, not by name."""
        assert (tuple(CounterSet.field_names()), CACHE_SCHEMA_VERSION) == (
            COUNTER_FIELDS, 3
        ), (
            "reordering, renaming, adding or removing a CounterSet field "
            "changes the counter block's layout: bump CACHE_SCHEMA_VERSION, "
            "or old entries read into the wrong fields without any error; "
            "then re-pin COUNTER_FIELDS and GOLDEN_KEY"
        )

    @given(scale=scales, video=clip_names, options=option_sets)
    def test_composed_key_is_content_key(self, scale, video, options):
        spec = _cell(scale, video, options)
        assert spec.cache_key() == _content_key(spec)

    def test_equal_values_that_serialize_apart_key_apart(self):
        """Nothing is memoised by value: 48 == 48.0 (and hash equal), but
        their JSON differs, and so do their keys."""
        options = preset_options("medium", crf=23, refs=1)
        as_int = _cell(QUICK.with_updates(data_capacity_scale=48), "cricket", options)
        as_float = _cell(QUICK, "cricket", options)
        assert as_int.cache_key() == _content_key(as_int)
        assert as_int.cache_key() != as_float.cache_key()

    def test_fixed_component_must_sort_first(self):
        key = FixedComponentKey("sweep", "config", baseline_config())
        with pytest.raises(ValueError, match="sort after 'config'"):
            key(options={}, aardvark=1)
        with pytest.raises(ValueError):
            key()

    def test_cache_filled_through_content_key_serves_a_warm_sweep(self, tmp_path):
        scale = QUICK.with_updates(name="keyfill", width=32, height=32, n_frames=2)
        cells = [
            *((scale.sweep_video, crf, refs, "medium")
              for crf in scale.crf_values for refs in scale.refs_values),
            *((scale.sweep_video, 23, 3, preset) for preset in PRESET_NAMES),
            *((video, 23, 3, "medium") for video in scale.videos),
        ]
        cache = ResultCache(tmp_path)
        stored = {}  # the ladder's medium cell is also the series' cricket cell
        for i, cell in enumerate(cells):
            if cell in stored:
                continue
            video, crf, refs, preset = cell
            spec = PointSpec(
                scale=scale, video=video, crf=crf, refs=refs, preset=preset,
                options=preset_options(preset, crf=crf, refs=refs),
            )
            counters = CounterSet(*(i + n / 8 for n in range(len(CounterSet.field_names()))))
            stored[cell] = SweepRecord(video, crf, refs, preset, counters)
            cache.put_record(_content_key(spec), stored[cell])

        with telemetry_session() as tel:
            served = [  # one runner per sweep: no cell is a memo hit
                record
                for sweep in ("crf_refs_sweep", "preset_sweep", "video_sweep")
                for record in getattr(SweepRunner(scale, jobs=1, cache=cache), sweep)()
            ]
        metrics = tel.metrics.as_dict()
        assert len(cells) == 50
        assert served == [stored[cell] for cell in cells]
        assert metrics["sweep.disk_hits"] == 50
        assert "sweep.profiles" not in metrics

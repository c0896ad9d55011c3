"""Property tests for the persistent result cache.

Four invariants (Hypothesis-driven):

- **Key stability**: a content key does not depend on the order key
  components (or dataclass fields) are supplied in;
- **Key sensitivity**: changing any single option or video-spec value
  changes the key;
- **Round-trip**: a record survives payload serialization and a disk
  write/read bit-for-bit, over every finite float64;
- **Corruption tolerance**: truncated or garbled entries read as misses,
  never as errors or wrong records.
"""

from __future__ import annotations

import base64
import math
import struct
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.codec.options import EncoderOptions
from repro.experiments.cache import (
    ResultCache,
    SweepRecord,
    content_key,
    record_from_payload,
    record_to_payload,
)
from repro.profiling.counters import CounterSet

# -- strategies ---------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)

counter_sets = st.builds(
    CounterSet, **{name: finite_floats for name in CounterSet.field_names()}
)

records = st.builds(
    SweepRecord,
    video=st.sampled_from(["cricket", "desktop", "holi", "hall"]),
    crf=st.integers(min_value=0, max_value=51),
    refs=st.integers(min_value=1, max_value=16),
    preset=st.sampled_from(["ultrafast", "medium", "placebo"]),
    counters=counter_sets,
)

option_sets = st.builds(
    EncoderOptions,
    crf=st.integers(min_value=0, max_value=51),
    refs=st.integers(min_value=1, max_value=16),
    subme=st.integers(min_value=0, max_value=11),
    bframes=st.integers(min_value=0, max_value=16),
    me=st.sampled_from(["dia", "hex", "umh"]),
)

video_specs = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["cricket", "desktop", "holi"]),
        "width": st.integers(min_value=16, max_value=256),
        "height": st.integers(min_value=16, max_value=256),
        "n_frames": st.integers(min_value=1, max_value=32),
    }
)


# -- key properties -----------------------------------------------------

class TestKeyStability:
    @given(options=option_sets, video=video_specs)
    def test_component_order_is_irrelevant(self, options, video):
        """Supplying the same components in any order (the dict-insertion
        analogue of reordering dataclass fields) yields the same key."""
        forward = content_key("sweep", options=options, video=video)
        reversed_ = content_key("sweep", video=video, options=options)
        assert forward == reversed_

    @given(options=option_sets, video=video_specs)
    def test_field_order_inside_components_is_irrelevant(self, options, video):
        shuffled = dict(reversed(list(video.items())))
        assert content_key("x", video=video) == content_key("x", video=shuffled)

    @given(options=option_sets)
    def test_key_is_deterministic_across_calls(self, options):
        assert content_key("sweep", options=options) == content_key(
            "sweep", options=options
        )


class TestKeySensitivity:
    @given(
        options=option_sets,
        field=st.sampled_from(["crf", "refs", "subme", "bframes"]),
        delta=st.integers(min_value=1, max_value=3),
    )
    def test_any_option_delta_changes_the_key(self, options, field, delta):
        lo, hi = {"crf": (0, 51), "refs": (1, 16),
                  "subme": (0, 11), "bframes": (0, 16)}[field]
        bumped = getattr(options, field) + delta
        if bumped > hi:
            bumped = lo + (bumped - hi - 1)
        changed = options.with_updates(**{field: bumped})
        assert content_key("sweep", options=options) != content_key(
            "sweep", options=changed
        )

    @given(video=video_specs)
    def test_video_spec_delta_changes_the_key(self, video):
        changed = dict(video, n_frames=video["n_frames"] + 1)
        assert content_key("sweep", video=video) != content_key(
            "sweep", video=changed
        )

    @given(options=option_sets)
    def test_kind_is_part_of_the_key(self, options):
        assert content_key("sweep", options=options) != content_key(
            "fig8", options=options
        )


# -- round-trip ---------------------------------------------------------

N_COUNTERS = len(CounterSet.field_names())


def _bits(counters: CounterSet) -> bytes:
    names = CounterSet.field_names()
    return struct.pack(f"<{N_COUNTERS}d", *(getattr(counters, name) for name in names))


#: Every finite float64, and the edges a decimal round trip could lose.
any_finite = st.floats(allow_nan=False, allow_infinity=False)
EDGES = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


class TestRoundTrip:
    @given(values=st.lists(any_finite, min_size=N_COUNTERS, max_size=N_COUNTERS))
    @example(values=[EDGES[n % len(EDGES)] for n in range(N_COUNTERS)])
    @example(values=[EDGES[(n + 1) % len(EDGES)] for n in range(N_COUNTERS)])
    def test_counter_block_round_trip_is_bit_exact(self, values):
        """Compared as packed bytes, not ``==``: ``-0.0 == 0.0``."""
        record = SweepRecord("cricket", 23, 1, "medium", CounterSet(*values))
        loaded = record_from_payload(record_to_payload(record))
        assert _bits(loaded.counters) == _bits(record.counters)
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            cache.put_record("ab" * 32, record)
            assert _bits(cache.get_record("ab" * 32).counters) == _bits(record.counters)

    @given(record=records)
    def test_payload_round_trip_is_exact(self, record):
        assert record_from_payload(record_to_payload(record)) == record

    @given(record=records)
    @settings(max_examples=25)
    def test_disk_round_trip_is_exact(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            key = content_key("sweep", probe=record.as_row())
            cache.put_record(key, record)
            loaded = cache.get_record(key)
        assert loaded == record
        for name in CounterSet.field_names():
            fresh = getattr(record.counters, name)
            cached = getattr(loaded.counters, name)
            assert math.isclose(fresh, cached, rel_tol=0.0, abs_tol=0.0)


# -- corruption tolerance ----------------------------------------------

class TestCorruptionTolerance:
    @given(record=records, keep=st.integers(min_value=0, max_value=60))
    @settings(max_examples=25)
    def test_truncated_entry_is_a_miss(self, record, keep):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            key = content_key("sweep", probe=record.as_row())
            path = cache.put_record(key, record)
            path.write_text(path.read_text()[:keep])
            assert cache.get_record(key) is None
            assert cache.get_value(key) is None

    @given(
        record=records,
        garbage=st.sampled_from(
            ['{"cache_schema": 999, "payload": {}}', "not json at all",
             "[]", '{"payload": null}', ""]
        ),
    )
    @settings(max_examples=20)
    def test_garbled_entry_is_a_miss(self, record, garbage):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            key = content_key("sweep", probe=record.as_row())
            path = cache.put_record(key, record)
            path.write_text(garbage)
            assert cache.get_record(key) is None

    @given(
        record=records,
        damage=st.sampled_from(["drop", "extra", "not-base64", "truncate"]),
    )
    @settings(max_examples=20)
    def test_dropped_counter_field_is_a_miss(self, record, damage):
        """A counter block of 21 or 23 values (a CounterSet with a field
        dropped or added), or one that is not base64, reads as a miss and
        is quarantined, never half-constructed."""
        payload = record_to_payload(record)
        block = base64.b64decode(payload["counters"])
        payload["counters"] = {
            "drop": base64.b64encode(block[:-8]).decode("ascii"),
            "extra": base64.b64encode(block + block[:8]).decode("ascii"),
            "not-base64": payload["counters"].replace("=", "*"),
            "truncate": payload["counters"][:-1],
        }[damage]
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            path = cache.put_value("0" * 64, payload, kind="sweep")
            assert cache.get_record("0" * 64) is None
            assert path.with_suffix(".corrupt").exists()

    def test_missing_file_is_a_miss(self):
        with tempfile.TemporaryDirectory() as tmp:
            assert ResultCache(Path(tmp) / "nowhere").get_record("ab" * 32) is None

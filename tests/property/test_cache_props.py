"""Property tests for the persistent result cache.

Five invariants (Hypothesis-driven):

- **Key stability**: a content key does not depend on the order key
  components (or dataclass fields) are supplied in;
- **Key sensitivity**: changing any single option or video-spec value
  changes the key;
- **Key laws of the tagged form**: a dataclass keys by its class name,
  its sorted field names and its values: declaration order is irrelevant,
  a renamed field or class or a change in a nested dataclass is a new key,
  and values equal in Python but not in JSON (``48`` / ``48.0``, ``True`` /
  ``1``) key apart;
- **Round-trip**: a record survives payload serialization and a disk
  write/read bit-for-bit, over every finite float64;
- **Corruption tolerance**: truncated or garbled entries read as misses,
  never as errors or wrong records.
"""

from __future__ import annotations

import base64
import dataclasses
import math
import struct
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.codec.options import EncoderOptions
from repro.experiments.cache import (
    ResultCache,
    SweepRecord,
    canonical_json,
    content_key,
    record_from_payload,
    record_to_payload,
)
from repro.profiling.counters import CounterSet
from repro.uarch.configs import baseline_config

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


def _toy(name: str, *fields: str) -> type:
    """A frozen dataclass ``name`` declaring ``fields`` in that order."""
    return dataclasses.make_dataclass(name, [(f, object) for f in fields], frozen=True)


Toy = _toy("Toy", "alpha", "beta", "gamma")
toy_values = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8), st.booleans(), st.none(),
)


class TestKeyLaws:
    """What the tagged form ``{"QualName(<sorted names>)": [values]}`` keys by."""

    @given(values=st.tuples(toy_values, toy_values, toy_values))
    def test_declaration_order_is_irrelevant(self, values):
        shuffled = _toy("Toy", "gamma", "alpha", "beta")
        named = dict(zip(("alpha", "beta", "gamma"), values))
        assert content_key("x", toy=Toy(**named)) == content_key("x", toy=shuffled(**named))

    @given(values=st.tuples(toy_values, toy_values, toy_values))
    def test_renaming_a_field_or_the_class_changes_the_key(self, values):
        key = content_key("x", toy=Toy(*values))
        assert key != content_key("x", toy=_toy("Toy", "alpha", "beta", "delta")(*values))
        assert key != content_key("x", toy=_toy("Tox", "alpha", "beta", "gamma")(*values))
        assert key != content_key("x", toy=_toy("Toy", "alpha", "beta", "gamma", "eps")(
            *values, None
        ))

    @given(
        level=st.sampled_from(["l1d", "l1i", "l2", "l3"]),
        field=st.sampled_from(["size_bytes", "assoc", "line_bytes", "latency"]),
    )
    def test_a_change_inside_a_nested_dataclass_changes_the_key(self, level, field):
        config = baseline_config()
        params = getattr(config, level)
        bumped = params.size_bytes * 2 if field == "size_bytes" else getattr(params, field) * 2
        changed = config.with_updates(**{level: dataclasses.replace(params, **{field: bumped})})
        assert content_key("x", config=config) != content_key("x", config=changed)

    def test_values_are_a_list_for_any_field_count(self):
        assert canonical_json(_toy("Zero")()) == '{"Zero()":[]}'
        assert canonical_json(_toy("One", "a")([1])) == '{"One(a)":[[1]]}'
        assert canonical_json(Toy(1, 2.0, "3")) == '{"Toy(alpha,beta,gamma)":[1,2.0,"3"]}'

    @given(x=st.integers(min_value=-2**53, max_value=2**53))
    def test_equal_values_that_serialize_apart_key_apart(self, x):
        assert x == float(x)
        assert content_key("x", toy=Toy(x, 0, 0)) != content_key("x", toy=Toy(float(x), 0, 0))
        assert content_key("x", toy=Toy(True, 0, 0)) != content_key("x", toy=Toy(1, 0, 0))
        assert content_key("x", toy=Toy(False, 0, 0)) != content_key("x", toy=Toy(0, 0, 0))


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

"""The result cache serves what its writer wrote, or a miss.

A record is rebuilt without coercion from its coordinates and one base64
block of float64 counters; a non-finite number is refused on the way in
and is damage on the way out; a payload the reader refuses is quarantined,
not silently overwritten; an entry is served only under the key its
envelope names; an entry written under another schema is a plain miss.
An entry is read whole, through raw descriptors that a failed read closes;
a path that cannot become readable is a miss at once, not after backoff.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import shutil
import struct
import time

import pytest

import repro
from repro.codec.presets import preset_options
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    SweepRecord,
    record_from_payload,
    record_to_payload,
)
from repro.experiments.runner import QUICK, PointSpec, SweepRunner
from repro.obs.session import telemetry_session
from repro.profiling.counters import CounterSet

KEY = "ab" * 32
OTHER_KEY = "cd" * 32
NAMES = CounterSet.field_names()
RECORD = SweepRecord(
    video="cricket",
    crf=23,
    refs=1,
    preset="medium",
    counters=CounterSet(*(0.5 + n for n in range(len(NAMES)))),
)


def _block(values) -> str:
    """A counter block as the writer lays it out: little-endian float64s."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _values(**changes) -> list[float]:
    return [changes.get(name, getattr(RECORD.counters, name)) for name in NAMES]


def _damaged(**changes):
    payload = record_to_payload(RECORD)
    payload.update(changes)
    return payload


#: Counter blocks the reader refuses, by what is wrong with them.
BAD_BLOCKS = {
    "21-values": _block(_values()[:-1]),
    "23-values": _block(_values() + [1.0]),
    "not-base64": "not base64!",
    "newline": _block(_values())[:40] + "\n" + _block(_values())[40:],
    "non-ascii": "é" + _block(_values())[1:],
    "dict": RECORD.counters.as_dict(),  # the schema-1 layout
    "list": _values(),
    "number": 12.0,
    "null": None,
}


class TestRecordIsNotCoerced:
    @pytest.mark.parametrize("field, value", [
        ("crf", 23.9), ("crf", True), ("crf", "23"), ("refs", 1.0),
        ("refs", False), ("video", 7), ("video", None), ("preset", ["medium"]),
    ])
    def test_damaged_field_is_rejected(self, field, value):
        with pytest.raises(TypeError):
            record_from_payload(_damaged(**{field: value}))

    @pytest.mark.parametrize("block", BAD_BLOCKS.values(), ids=BAD_BLOCKS.keys())
    def test_damaged_counter_block_is_rejected(self, block):
        with pytest.raises((TypeError, ValueError)):
            record_from_payload(_damaged(counters=block))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_counter_is_rejected(self, value):
        with pytest.raises(ValueError):
            record_from_payload(_damaged(counters=_block(_values(ipc=value))))

    def test_counters_are_read_by_position(self):
        record = record_from_payload(_damaged(counters=_block(_values(ipc=-0.0))))
        assert record.counters == dataclasses.replace(RECORD.counters, ipc=-0.0)
        assert str(record.counters.ipc) == "-0.0"

    def test_damaged_record_on_disk_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value(KEY, _damaged(crf=23.9), kind="sweep")
        assert cache.get_record(KEY) is None


class TestRefusedRecordIsQuarantined:
    @pytest.mark.parametrize("changes", [
        {"crf": 23.9},
        {"video": None},
        {"counters": BAD_BLOCKS["21-values"]},
        {"counters": BAD_BLOCKS["not-base64"]},
        {"counters": BAD_BLOCKS["dict"]},
        {"counters": _block(_values(cycles=float("nan")))},
    ], ids=[
        "coerced-crf", "null-video", "short-block", "bad-base64", "dict-block", "nan",
    ])
    def test_refused_record_is_moved_aside_not_overwritten(self, tmp_path, changes):
        cache = ResultCache(tmp_path)
        path = cache.put_value(KEY, _damaged(**changes), kind="sweep")

        with telemetry_session() as tel:
            assert cache.get_record(KEY) is None
        assert tel.metrics.as_dict()["cache.quarantined"] == 1
        assert path.with_suffix(".corrupt").exists() and not path.exists()

        cache.put_record(KEY, RECORD)  # the recompute
        assert cache.get_record(KEY) == RECORD
        assert cache.stats().corrupt == 1

    def test_schema_1_entry_is_a_plain_miss_and_is_recomputed(self, tmp_path):
        """An entry of the old layout (counters as a dict of decimals) is
        expected drift: a miss the sweep recomputes and overwrites, never
        quarantined."""
        assert CACHE_SCHEMA_VERSION == 4
        scale = QUICK.with_updates(name="schema1", width=32, height=32, n_frames=2)
        cache = ResultCache(tmp_path)
        key = PointSpec(
            scale=scale, video="cricket", crf=23, refs=1, preset="medium",
            options=preset_options("medium", crf=23, refs=1),
        ).cache_key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "cache_schema": 1, "repro_version": repro.__version__, "kind": "sweep", "key": key,
            "payload": {"video": "cricket", "crf": 23, "refs": 1, "preset": "medium",
                        "counters": RECORD.counters.as_dict()},
        }), encoding="utf-8")

        with telemetry_session() as tel:
            record = SweepRunner(scale, jobs=1, cache=cache).profile(
                "cricket", crf=23, refs=1, preset="medium"
            )
        metrics = tel.metrics.as_dict()
        assert metrics["sweep.profiles"] == 1
        assert metrics["sweep.disk_writes"] == 1
        assert "cache.quarantined" not in metrics
        assert cache.stats().corrupt == 0
        assert json.loads(path.read_text(encoding="utf-8"))["cache_schema"] == 4
        assert cache.get_record(key) == record


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_put_refuses_a_non_finite_number(self, tmp_path, value):
        cache = ResultCache(tmp_path)
        record = dataclasses.replace(
            RECORD, counters=dataclasses.replace(RECORD.counters, ipc=value)
        )
        with pytest.raises(ValueError, match=KEY):
            cache.put_record(KEY, record)
        assert cache.stats().entries == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_on_disk_is_quarantined(self, tmp_path, literal):
        """A non-finite float64 planted in a stored counter block is damage."""
        cache = ResultCache(tmp_path)
        path = cache.put_record(KEY, RECORD)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["payload"]["counters"] = _block(_values(ipc=float(literal)))
        path.write_text(json.dumps(envelope), encoding="utf-8")

        with telemetry_session() as tel:
            assert cache.get_record(KEY) is None
        assert tel.metrics.as_dict()["cache.quarantined"] == 1
        assert path.with_suffix(".corrupt").exists() and not path.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_literal_is_quarantined(self, tmp_path, literal):
        """The JSON values beside sweep records (fig8, fig9, tables) are
        written without ``NaN`` / ``Infinity``; such a literal is damage."""
        cache = ResultCache(tmp_path)
        path = cache.put_value(KEY, {"score": 1.5}, kind="fig8")
        path.write_text(
            path.read_text(encoding="utf-8").replace("1.5", literal), encoding="utf-8"
        )

        with telemetry_session() as tel:
            assert cache.get_value(KEY) is None
        assert tel.metrics.as_dict()["cache.quarantined"] == 1
        assert path.with_suffix(".corrupt").exists() and not path.exists()


class TestEntryUnderItsOwnKey:
    def test_entry_copied_to_another_key_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        source = cache.put_record(KEY, RECORD)
        target = cache.path_for(OTHER_KEY)
        target.parent.mkdir(parents=True)
        shutil.copyfile(source, target)

        with telemetry_session() as tel:
            assert cache.get_record(OTHER_KEY) is None
        assert tel.metrics.as_dict()["cache.quarantined"] == 1
        assert target.with_suffix(".corrupt").exists() and not target.exists()
        assert cache.get_record(KEY) == RECORD

    def test_entry_without_a_key_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_record(KEY, RECORD)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        del envelope["key"]
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.get_record(KEY) is None
        assert path.with_suffix(".corrupt").exists()

    def test_bytes_that_are_not_utf8_are_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_record(KEY, RECORD)
        path.write_bytes(b'{"payload": "\xff"}')
        assert cache.get_record(KEY) is None
        assert path.with_suffix(".corrupt").exists()


class TestRawRead:
    @staticmethod
    def _entry_of_size(cache, key, size):
        """A ``put_value`` whose entry file is exactly ``size`` bytes."""
        overhead = cache.put_value(key, "").stat().st_size
        payload = "x" * (size - overhead)
        path = cache.put_value(key, payload)
        assert path.stat().st_size == size
        return payload

    @pytest.mark.parametrize("size", [65_535, 65_536, 65_537])
    def test_entries_around_one_read_round_trip(self, tmp_path, size):
        cache = ResultCache(tmp_path)
        payload = self._entry_of_size(cache, KEY, size)
        assert cache.get_value(KEY) == payload

    def test_a_fig_sized_payload_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {
            "rows": [
                {"crf": crf, "refs": refs, "ipc": crf / (refs + 0.3), "label": f"c{crf}r{refs}"}
                for crf in range(52) for refs in range(1, 65)
            ],
        }
        path = cache.put_value(KEY, payload, kind="fig8")
        assert 180 * 1024 < path.stat().st_size < 256 * 1024
        assert cache.get_value(KEY) == payload

    def test_a_truncated_large_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._entry_of_size(cache, KEY, 65_537)
        path = cache.path_for(KEY)
        path.write_bytes(path.read_bytes()[:65_536])

        with telemetry_session() as tel:
            assert cache.get_value(KEY) is None
        assert tel.metrics.as_dict()["cache.quarantined"] == 1
        assert path.with_suffix(".corrupt").exists() and not path.exists()

    def test_a_read_error_closes_its_descriptor(self, tmp_path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to count descriptors in")
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).mkdir(parents=True)  # opens, then fails to read
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(8):
            assert cache.get_value(KEY) is None
        assert len(os.listdir("/proc/self/fd")) == before


class TestPermanentReadErrors:
    """A path that no retry can make readable is a miss at once."""

    @pytest.mark.parametrize("layout", ["entry-is-a-directory", "shard-is-a-file"])
    def test_broken_layout_is_a_miss_without_backoff(self, tmp_path, monkeypatch, layout):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        cache = ResultCache(tmp_path)
        if layout == "entry-is-a-directory":
            cache.path_for(KEY).mkdir(parents=True)
        else:
            (tmp_path / KEY[:2]).write_text("not a directory", encoding="utf-8")

        with telemetry_session() as tel:
            assert cache.get_value(KEY) is None
            assert cache.get_record(KEY) is None
        metrics = tel.metrics.as_dict()
        assert metrics["cache.read_giveups"] == 2
        assert "retry.retries" not in metrics
        assert "cache.quarantined" not in metrics
        assert sleeps == []


class TestFastBuiltCounters:
    VALUES = tuple(0.5 + n for n in range(len(NAMES)))

    def test_equals_the_constructor_field_for_field(self):
        fast = CounterSet._from_values(self.VALUES)
        built = CounterSet(*self.VALUES)
        assert fast == built and hash(fast) == hash(built)
        assert [getattr(fast, name) for name in NAMES] == list(self.VALUES)
        assert fast.as_dict() == built.as_dict()
        assert type(fast) is CounterSet

    def test_is_frozen(self):
        fast = CounterSet._from_values(self.VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.ipc = 1.0

    def test_the_reader_builds_it(self):
        record = record_from_payload(record_to_payload(RECORD))
        assert record == RECORD and hash(record) == hash(RECORD)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.counters.cycles = 0.0

"""The result cache serves what its writer wrote, or a miss.

A record is rebuilt without coercion; a number JSON cannot hold (``NaN``,
``Infinity``) is refused on the way in and is damage on the way out; an
entry is served only under the key its envelope names.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

from repro.experiments.cache import (
    ResultCache,
    SweepRecord,
    record_from_payload,
    record_to_payload,
)
from repro.obs import telemetry_session
from repro.profiling.counters import CounterSet

KEY = "ab" * 32
OTHER_KEY = "cd" * 32
RECORD = SweepRecord(
    video="cricket",
    crf=23,
    refs=1,
    preset="medium",
    counters=CounterSet(*(0.5 + n for n in range(len(CounterSet.field_names())))),
)


def _damaged(**changes):
    payload = record_to_payload(RECORD)
    counters = changes.pop("counters", {})
    payload.update(changes)
    payload["counters"].update(counters)
    return payload


class TestRecordIsNotCoerced:
    @pytest.mark.parametrize("field, value", [
        ("crf", 23.9), ("crf", True), ("crf", "23"), ("refs", 1.0),
        ("refs", False), ("video", 7), ("video", None), ("preset", ["medium"]),
    ])
    def test_damaged_field_is_rejected(self, field, value):
        with pytest.raises(TypeError):
            record_from_payload(_damaged(**{field: value}))

    @pytest.mark.parametrize("value", ["12", True, None])
    def test_damaged_counter_is_rejected(self, value):
        with pytest.raises(TypeError):
            record_from_payload(_damaged(counters={"cycles": value}))

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="int-1e400"),
    ])
    def test_non_finite_counter_is_rejected(self, value):
        with pytest.raises(ValueError):
            record_from_payload(_damaged(counters={"ipc": value}))

    def test_int_counter_reads_as_float(self):
        counters = record_from_payload(_damaged(counters={"instructions": 12})).counters
        assert counters.instructions == 12.0
        assert type(counters.instructions) is float

    def test_damaged_record_on_disk_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value(KEY, _damaged(crf=23.9), kind="sweep")
        assert cache.get_record(KEY) is None


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
        cache = ResultCache(tmp_path)
        path = cache.put_record(KEY, RECORD)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["payload"]["counters"]["ipc"] = float(literal)
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert literal in path.read_text(encoding="utf-8")

        with telemetry_session() as tel:
            assert cache.get_record(KEY) is None
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

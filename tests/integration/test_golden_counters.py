"""The golden counters: bitstreams and ``CounterSet``s pinned by digest.

``tests/golden/counters.json`` holds, for two clips at every preset (crf
23, refs 3, 48x32, 5 frames), the sha256 of the bitstream and of the
``CounterSet``. A change that claims "bitstreams and counters unchanged"
must leave the file as it is; one that moves them on purpose rewrites it
with ``PYTHONPATH=src python tools/golden.py --write`` and shows the diff.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.codec.presets import PRESET_NAMES

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "golden.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("tools_golden", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_tool()


@pytest.fixture(scope="module")
def measured() -> dict:
    return golden.measure()


def test_the_file_is_what_the_tool_writes(measured):
    """Byte for byte: every cell's digests, and the geometry they were taken at."""
    committed = golden.PATH.read_text()
    assert golden.moved(json.loads(committed), measured) == []
    assert committed == golden.render(measured)


def test_every_preset_is_its_own_counter_set(measured):
    """The file's law: two presets of a clip share a ``CounterSet`` only when
    they are the same encoder (``golden.SAME_ENCODER``), and then they share
    the bitstream too. Every other preset would show a change of its own."""
    same = {frozenset(pair) for pair in golden.SAME_ENCODER}
    for clip, cells in measured["cells"].items():
        assert list(cells) == list(PRESET_NAMES)
        for i, a in enumerate(PRESET_NAMES):
            for b in PRESET_NAMES[i + 1 :]:
                pair = frozenset((a, b))
                if pair in same:
                    assert cells[a] == cells[b], (clip, a, b)
                else:
                    assert cells[a]["counters"] != cells[b]["counters"], (clip, a, b)

#!/usr/bin/env python
"""The golden counters: one committed file behind every "unchanged" claim.

``PYTHONPATH=src python tools/golden.py`` profiles each clip of ``CLIPS`` at
every preset (crf 23, refs 3, at ``GEOMETRY``) and compares the bitstream's
sha256 and the ``CounterSet``'s sha256 with ``tests/golden/counters.json``,
printing each cell that moved (exit 1 if any did). ``--write`` rewrites the
file instead. A change that claims identity leaves the file alone; a change
that moves counters on purpose rewrites it and shows the diff.

The file's law: within a clip, two presets share a ``CounterSet`` only if
they are one of ``SAME_ENCODER``, presets whose options differ in nothing
the encoder reads; those share their bitstream too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.codec.presets import PRESET_NAMES, preset_options
from repro.profiling.perf import profile_transcode
from repro.video.vbench import load_video

PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "counters.json"
CLIPS = ("cricket", "desktop")
GEOMETRY = {
    "width": 48, "height": 32, "n_frames": 5, "data_capacity_scale": 16.0,
    "crf": 23, "refs": 3,
}
#: ``fast`` is ``medium`` at subme 6 instead of 7, and ``subpel_refine``
#: runs the same SATD quarter-pel walk at both.
SAME_ENCODER = (("fast", "medium"),)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure() -> dict:
    """Every cell's digests, with the geometry they were taken at."""
    geo = GEOMETRY
    cells = {}
    for clip in CLIPS:
        video = load_video(
            clip, width=geo["width"], height=geo["height"], n_frames=geo["n_frames"]
        )
        cells[clip] = {}
        for preset in PRESET_NAMES:
            options = preset_options(preset, crf=geo["crf"], refs=geo["refs"])
            result = profile_transcode(
                video, options, data_capacity_scale=geo["data_capacity_scale"]
            )
            counters = json.dumps(result.counters.as_dict(), sort_keys=True)
            cells[clip][preset] = {
                "bitstream": _sha256(result.encode.stream.bitstream),
                "counters": _sha256(counters.encode("utf-8")),
            }
    return {"geometry": geo, "cells": cells}


def render(golden: dict) -> str:
    return json.dumps(golden, indent=2) + "\n"


def moved(expected: dict, got: dict) -> list[str]:
    """One line per cell (or the geometry) that differs."""
    if expected["geometry"] != got["geometry"]:
        return [f"geometry: {expected['geometry']} -> {got['geometry']}"]
    lines = []
    for clip, presets in got["cells"].items():
        for preset, digests in presets.items():
            before = expected["cells"].get(clip, {}).get(preset)
            if before != digests:
                changed = [key for key in digests if (before or {}).get(key) != digests[key]]
                lines.append(f"{clip} {preset}: {', '.join(changed)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {PATH.name}")
    args = parser.parse_args(argv)
    got = measure()
    if args.write:
        PATH.parent.mkdir(parents=True, exist_ok=True)
        PATH.write_text(render(got))
        print(f"wrote {PATH}")
        return 0
    lines = moved(json.loads(PATH.read_text()), got)
    print("\n".join(lines) if lines else "every cell unchanged")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

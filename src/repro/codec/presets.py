"""The ten x264 presets, with option values copied from the paper's Table II.

Presets bundle standard values for every tuning knob, trading encoding
speed against compression efficiency. The paper profiles all ten with the
default crf (23) and refs (3); :func:`preset_options` therefore keeps the
preset's own ``refs`` unless the caller overrides it, matching §III-C2
("we use the default crf (23) and refs (3) values for different presets").
"""

from __future__ import annotations

from repro.codec.options import EncoderOptions

__all__ = ["PRESET_NAMES", "PRESETS", "PRESET_REFS", "preset_options"]

PRESET_NAMES = (
    "ultrafast",
    "superfast",
    "veryfast",
    "faster",
    "fast",
    "medium",
    "slow",
    "slower",
    "veryslow",
    "placebo",
)

#: Table II, verbatim. ``partitions`` uses our canonical set names and
#: ``deblock`` is (strength, threshold).
_TABLE_II: dict[str, dict[str, object]] = {
    "ultrafast": dict(
        aq_mode=0, b_adapt=0, bframes=0, deblock=(0, 0), me="dia", merange=16,
        partitions="none", scenecut=0, subme=0, trellis=0,
    ),
    "superfast": dict(
        aq_mode=1, b_adapt=1, bframes=3, deblock=(1, 0), me="dia", merange=16,
        partitions="i8x8,i4x4", scenecut=40, subme=1, trellis=0,
    ),
    "veryfast": dict(
        aq_mode=1, b_adapt=1, bframes=3, deblock=(1, 0), me="hex", merange=16,
        partitions="-p4x4", scenecut=40, subme=2, trellis=0,
    ),
    "faster": dict(
        aq_mode=1, b_adapt=1, bframes=3, deblock=(1, 0), me="hex", merange=16,
        partitions="-p4x4", scenecut=40, subme=4, trellis=1,
    ),
    "fast": dict(
        aq_mode=1, b_adapt=1, bframes=3, deblock=(1, 0), me="hex", merange=16,
        partitions="-p4x4", scenecut=40, subme=6, trellis=1,
    ),
    "medium": dict(
        aq_mode=1, b_adapt=1, bframes=3, deblock=(1, 0), me="hex", merange=16,
        partitions="-p4x4", scenecut=40, subme=7, trellis=1,
    ),
    "slow": dict(
        aq_mode=1, b_adapt=1, bframes=3, deblock=(1, 0), me="hex", merange=16,
        partitions="-p4x4", scenecut=40, subme=8, trellis=2,
    ),
    "slower": dict(
        aq_mode=1, b_adapt=2, bframes=3, deblock=(1, 0), me="umh", merange=16,
        partitions="all", scenecut=40, subme=9, trellis=2,
    ),
    "veryslow": dict(
        aq_mode=1, b_adapt=2, bframes=8, deblock=(1, 0), me="umh", merange=24,
        partitions="all", scenecut=40, subme=10, trellis=2,
    ),
    "placebo": dict(
        aq_mode=1, b_adapt=2, bframes=16, deblock=(1, 0), me="tesa", merange=24,
        partitions="all", scenecut=40, subme=11, trellis=2,
    ),
}

#: The per-preset ``refs`` row of Table II (kept separately because the
#: paper's preset experiments pin refs to the default 3).
PRESET_REFS: dict[str, int] = {
    "ultrafast": 1,
    "superfast": 1,
    "veryfast": 1,
    "faster": 2,
    "fast": 2,
    "medium": 3,
    "slow": 5,
    "slower": 8,
    "veryslow": 16,
    "placebo": 16,
}

PRESETS: dict[str, dict[str, object]] = {
    name: {**opts, "refs": PRESET_REFS[name]} for name, opts in _TABLE_II.items()
}


def preset_options(
    name: str,
    *,
    crf: int = 23,
    refs: int | None = None,
) -> EncoderOptions:
    """Build :class:`EncoderOptions` for a named preset.

    ``refs=None`` keeps the preset's Table II value; the paper's preset
    sweep passes ``refs=3`` explicitly.
    """
    if name not in _TABLE_II:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    values: dict[str, object] = dict(_TABLE_II[name])
    values["refs"] = PRESET_REFS[name] if refs is None else refs
    values["crf"] = crf
    values["preset_name"] = name
    return EncoderOptions(**values)  # type: ignore[arg-type]

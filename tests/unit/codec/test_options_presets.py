"""Unit tests for repro.codec.options and repro.codec.presets."""

import numpy as np
import pytest

from repro.codec.options import EncoderOptions, ME_METHODS
from repro.codec.presets import PRESET_NAMES, PRESET_REFS, PRESETS, preset_options
from repro.video.frame import Frame


class TestEncoderOptions:
    def test_defaults_match_paper(self):
        opts = EncoderOptions()
        assert opts.crf == 23
        assert opts.refs == 3
        assert opts.preset_name == "medium"

    @pytest.mark.parametrize("field,value", [
        ("crf", 52), ("crf", -1), ("refs", 0), ("refs", 17),
        ("subme", 12), ("trellis", 3), ("merange", 2),
        ("bframes", 17), ("scenecut", 101), ("aq_mode", 2),
    ])
    def test_range_validation(self, field, value):
        with pytest.raises(ValueError):
            EncoderOptions(**{field: value})

    def test_invalid_me_method(self):
        with pytest.raises(ValueError):
            EncoderOptions(me="zigzag")

    def test_invalid_rc_mode(self):
        # CRF is the one rate control: there is no mode to choose.
        with pytest.raises(TypeError):
            EncoderOptions(rc_mode="vbr")

    def test_with_updates_validates(self):
        opts = EncoderOptions()
        new = opts.with_updates(crf=40)
        assert new.crf == 40 and opts.crf == 23
        with pytest.raises(ValueError):
            opts.with_updates(crf=99)

    def test_deblock_enabled_flag(self):
        assert EncoderOptions(deblock=(1, 0)).deblock_enabled
        assert not EncoderOptions(deblock=(0, 0)).deblock_enabled

    @pytest.mark.parametrize("partitions,expected", [
        ("none", ()),
        ("i8x8,i4x4", ("i4x4",)),
        ("-p4x4", ("i4x4", "p8x8")),
        ("all", ("i4x4", "p8x8", "p4x4")),
    ])
    def test_partition_candidates(self, partitions, expected):
        assert EncoderOptions(partitions=partitions).partition_candidates == expected

    def test_constants(self):
        assert set(ME_METHODS) == {"dia", "hex", "umh", "esa", "tesa"}


class TestPresets:
    def test_ten_presets(self):
        assert len(PRESET_NAMES) == 10
        assert PRESET_NAMES[0] == "ultrafast"
        assert PRESET_NAMES[-1] == "placebo"

    def test_table_ii_spot_values(self):
        assert PRESETS["ultrafast"]["me"] == "dia"
        assert PRESETS["ultrafast"]["scenecut"] == 0
        assert PRESETS["ultrafast"]["bframes"] == 0
        assert PRESETS["medium"]["subme"] == 7
        assert PRESETS["medium"]["trellis"] == 1
        assert PRESETS["placebo"]["me"] == "tesa"
        assert PRESETS["placebo"]["bframes"] == 16
        assert PRESETS["veryslow"]["merange"] == 24
        assert PRESETS["slower"]["b_adapt"] == 2

    def test_table_ii_refs_row(self):
        assert PRESET_REFS == {
            "ultrafast": 1, "superfast": 1, "veryfast": 1, "faster": 2,
            "fast": 2, "medium": 3, "slow": 5, "slower": 8,
            "veryslow": 16, "placebo": 16,
        }

    def test_subme_increases_monotonically(self):
        submes = [PRESETS[p]["subme"] for p in PRESET_NAMES]
        assert submes == sorted(submes)

    def test_preset_options_builds_valid(self):
        for name in PRESET_NAMES:
            opts = preset_options(name)
            assert opts.preset_name == name
            assert opts.crf == 23

    def test_preset_options_refs_default_from_table(self):
        assert preset_options("veryslow").refs == 16

    def test_preset_options_refs_override(self):
        # The paper pins refs=3 for its preset sweep.
        assert preset_options("veryslow", refs=3).refs == 3

    def test_preset_options_extra_overrides(self):
        # One encoder: CRF + AQ on luma. The options, overrides and planes
        # of the rate-control modes and the chroma coder it had are refused.
        with pytest.raises(TypeError):
            preset_options("fast", qp=30)
        with pytest.raises(TypeError):
            EncoderOptions(rc_mode="abr")
        with pytest.raises(TypeError):
            EncoderOptions(chroma=True)
        luma = np.zeros((32, 48), np.uint8)
        with pytest.raises(TypeError):
            Frame(luma, chroma=(luma[::2, ::2], luma[::2, ::2]))

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset_options("turbo")

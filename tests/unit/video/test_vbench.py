"""Unit tests for repro.video.vbench (the Table I catalog)."""

import numpy as np
import pytest

from repro.obs import telemetry_session
from repro.video import vbench
from repro.video.vbench import (
    ALL_VIDEOS,
    BIG_BUCK_BUNNY,
    VBENCH_VIDEOS,
    cached_video,
    load_video,
    scene_spec_for,
    video_info,
)


class TestCatalog:
    def test_fifteen_vbench_videos(self):
        assert len(VBENCH_VIDEOS) == 15

    def test_big_buck_bunny_included(self):
        assert BIG_BUCK_BUNNY in ALL_VIDEOS
        assert len(ALL_VIDEOS) == 16

    def test_table_i_values_verbatim(self):
        # Spot-check rows against the paper's Table I.
        desktop = video_info("desktop")
        assert (desktop.width, desktop.height, desktop.fps) == (1280, 720, 30)
        assert desktop.entropy == 0.2
        chicken = video_info("chicken")
        assert (chicken.width, chicken.height) == (3840, 2160)
        assert chicken.entropy == 5.9
        hall = video_info("hall")
        assert hall.fps == 29 and hall.entropy == 7.7
        game3 = video_info("game3")
        assert game3.fps == 59

    def test_entropy_sorted_order(self):
        entropies = [v.entropy for v in VBENCH_VIDEOS]
        assert entropies == sorted(entropies)

    def test_resolution_labels(self):
        assert video_info("cat").resolution_label == "480p"
        assert video_info("bike").resolution_label == "720p"
        assert video_info("hall").resolution_label == "1080p"
        assert video_info("chicken").resolution_label == "2160p"

    def test_unknown_video_raises(self):
        with pytest.raises(KeyError, match="unknown video"):
            video_info("nonexistent")


class TestSceneSpecMapping:
    def test_entropy_scales_motion(self):
        lo = scene_spec_for(video_info("desktop"))
        hi = scene_spec_for(video_info("hall"))
        assert hi.motion_magnitude > lo.motion_magnitude
        assert hi.texture_detail > lo.texture_detail
        assert hi.noise_level > lo.noise_level

    def test_low_entropy_no_scene_cuts(self):
        assert scene_spec_for(video_info("desktop")).scene_cut_period == 0
        assert scene_spec_for(video_info("presentation")).scene_cut_period == 0

    def test_high_entropy_has_scene_cuts(self):
        assert scene_spec_for(video_info("holi")).scene_cut_period > 0

    def test_geometry_overrides(self):
        spec = scene_spec_for(video_info("cricket"), width=64, height=48, n_frames=6)
        assert (spec.width, spec.height, spec.n_frames) == (64, 48, 6)

    def test_full_geometry_default(self):
        spec = scene_spec_for(video_info("cricket"))
        assert (spec.width, spec.height) == (1280, 720)
        assert spec.n_frames == 150  # 5 seconds at 30 fps


class TestLoadVideo:
    def test_proxy_scale_small(self):
        clip = load_video("cricket")
        assert clip.height == 96
        assert clip.width % 16 == 0
        assert len(clip) == 10

    def test_proxy_preserves_aspect_roughly(self):
        clip = load_video("chicken")  # 16:9
        aspect = clip.width / clip.height
        assert 1.3 < aspect < 2.2

    def test_explicit_geometry(self):
        clip = load_video("holi", width=64, height=48, n_frames=3)
        assert clip.resolution == (64, 48)
        assert len(clip) == 3

    def test_deterministic(self):
        import numpy as np

        a = load_video("girl", width=48, height=32, n_frames=3).lumas()
        b = load_video("girl", width=48, height=32, n_frames=3).lumas()
        assert np.array_equal(a, b)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            load_video("cricket", scale="huge")

    def test_fps_matches_catalog(self):
        clip = load_video("game3", width=48, height=32, n_frames=2)
        assert clip.fps == 59.0


class TestCachedVideo:
    GEOMETRY = dict(width=48, height=32, n_frames=4)

    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        monkeypatch.setattr(vbench, "_CLIPS", {})

    def test_synthesizes_once_and_counts_the_miss(self):
        with telemetry_session() as tel:
            first = cached_video("desktop", **self.GEOMETRY)
            second = cached_video("desktop", **self.GEOMETRY)
            cached_video("desktop", **{**self.GEOMETRY, "n_frames": 5})
        assert first is second
        assert tel.metrics.as_dict()["video.loads"] == 2
        direct = load_video("desktop", **self.GEOMETRY)
        for mine, theirs in zip(direct, first):
            assert np.array_equal(mine.luma, theirs.luma)

    def test_planes_are_read_only(self):
        clip = cached_video("holi", **self.GEOMETRY)
        for frame in clip:
            with pytest.raises(ValueError, match="read-only"):
                frame.luma[0, 0] = 0

"""The vbench video catalog (paper Table I) with synthetic stand-ins.

vbench [Lottarini et al., ASPLOS'18] selects 15 five-second clips that are
representative of cloud transcoding corpora; the paper also adds the Big
Buck Bunny clip. The real clips are not redistributable, so
:func:`load_video` procedurally synthesizes a clip whose geometry and
frame rate match Table I exactly, and whose *content complexity* is driven
by the published entropy value through :class:`repro.video.synthetic.SceneSpec`.

Entropy is vbench's measure of how many bits visually-lossless encoding
needs; in our generators it scales texture detail, motion magnitude and
irregularity, and scene-cut frequency, so the across-video trends of the
paper's Figure 7 are driven by the same axis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro._util import check_positive
from repro.obs import session as obs
from repro.video.frame import FrameSequence
from repro.video.synthetic import SceneSpec, generate_scene

__all__ = [
    "VideoInfo",
    "VBENCH_VIDEOS",
    "ALL_VIDEOS",
    "video_info",
    "load_video",
    "cached_video",
]


@dataclass(frozen=True)
class VideoInfo:
    """One row of the paper's Table I."""

    full_name: str
    short_name: str
    width: int
    height: int
    fps: int
    entropy: float

    @property
    def resolution_label(self) -> str:
        """Marketing-style vertical resolution label, e.g. ``"1080p"``."""
        return f"{self.height}p"

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.width, self.height)


def _info(full: str, short: str, w: int, h: int, fps: int, entropy: float) -> VideoInfo:
    return VideoInfo(full, short, w, h, fps, entropy)


#: Table I of the paper, verbatim (full name, short name, resolution, FPS,
#: entropy), in the paper's entropy-sorted order.
VBENCH_VIDEOS: tuple[VideoInfo, ...] = (
    _info("desktop_1280x720_30.mkv", "desktop", 1280, 720, 30, 0.2),
    _info("presentation_1920x1080_25.mkv", "presentation", 1920, 1080, 25, 0.2),
    _info("bike_1280x720_29.mkv", "bike", 1280, 720, 29, 0.9),
    _info("funny_1920x1080_30.mkv", "funny", 1920, 1080, 30, 2.5),
    _info("cricket_1280x720_30.mkv", "cricket", 1280, 720, 30, 3.4),
    _info("house_1920x1080_30.mkv", "house", 1920, 1080, 30, 3.6),
    _info("game1_1920x1080_60.mkv", "game1", 1920, 1080, 60, 4.6),
    _info("game2_1280x720_30.mkv", "game2", 1280, 720, 30, 4.9),
    _info("girl_1280x720_30.mkv", "girl", 1280, 720, 30, 5.9),
    _info("chicken_3840x2160_30.mkv", "chicken", 3840, 2160, 30, 5.9),
    _info("game3_1280x720_59.mkv", "game3", 1280, 720, 59, 6.1),
    _info("cat_854x480_29.mkv", "cat", 854, 480, 29, 6.8),
    _info("holi_854x480_30.mkv", "holi", 854, 480, 30, 7.0),
    _info("landscape_1920x1080_29.mkv", "landscape", 1920, 1080, 29, 7.2),
    _info("hall_1920x1080_29.mkv", "hall", 1920, 1080, 29, 7.7),
)

#: Big Buck Bunny, the extra clip the paper studies alongside vbench.
BIG_BUCK_BUNNY = _info("big_buck_bunny_1920x1080_30.mkv", "bbb", 1920, 1080, 30, 3.0)

ALL_VIDEOS: tuple[VideoInfo, ...] = VBENCH_VIDEOS + (BIG_BUCK_BUNNY,)

_BY_SHORT_NAME = {v.short_name: v for v in ALL_VIDEOS}

MAX_ENTROPY = 8.0
"""Normalization ceiling for entropy → scene-knob mapping."""


def video_info(short_name: str) -> VideoInfo:
    """Look up a catalog entry by short name (e.g. ``"desktop"``)."""
    try:
        return _BY_SHORT_NAME[short_name]
    except KeyError:
        raise KeyError(
            f"unknown video {short_name!r}; known: {sorted(_BY_SHORT_NAME)}"
        ) from None


def scene_spec_for(
    info: VideoInfo,
    *,
    width: int | None = None,
    height: int | None = None,
    n_frames: int | None = None,
) -> SceneSpec:
    """Map a catalog entry's entropy onto synthetic scene knobs.

    Low-entropy clips (``desktop``, ``presentation``) become near-static,
    smooth scenes; high-entropy clips (``holi``, ``hall``) get heavy
    irregular motion, fine texture, and periodic scene cuts — matching the
    paper's description of entropy ("more motion, or frequent scene
    transition").
    """
    e = min(info.entropy, MAX_ENTROPY) / MAX_ENTROPY
    w = width if width is not None else info.width
    h = height if height is not None else info.height
    n = n_frames if n_frames is not None else int(round(info.fps * 5))
    # Scene cuts only appear for genuinely complex content (entropy > 2.5ish).
    cut_period = 0
    if info.entropy > 2.5:
        # More entropy → more frequent cuts, between ~1/3 and ~2 seconds.
        cut_period = max(4, int(round((1.8 - 1.4 * e) * info.fps)))
    return SceneSpec(
        width=w,
        height=h,
        n_frames=n,
        fps=float(info.fps),
        texture_detail=0.12 + 0.75 * e,
        motion_magnitude=0.05 + 0.85 * e,
        motion_irregularity=0.6 * e,
        scene_cut_period=cut_period,
        noise_level=0.03 + 0.25 * e,
        n_sprites=3 + int(round(7 * e)),
        # A *stable* digest, not hash(): str hashing is randomized per
        # process (PYTHONHASHSEED), which would make clips — and every
        # downstream sweep record — differ between a run and its
        # re-run continuation in another process.
        seed=int.from_bytes(
            hashlib.sha256(info.short_name.encode("utf-8")).digest()[:2], "big"
        ),
        name=info.short_name,
    )


def load_video(
    short_name: str,
    *,
    scale: str = "proxy",
    width: int | None = None,
    height: int | None = None,
    n_frames: int | None = None,
) -> FrameSequence:
    """Synthesize the stand-in clip for a catalog entry.

    Parameters
    ----------
    scale:
        ``"proxy"`` (default) renders a small aspect-preserving proxy
        suitable for simulation sweeps; ``"full"`` renders at the Table I
        resolution and five-second duration (slow for 1080p+).
    width, height, n_frames:
        Explicit geometry overrides (take precedence over ``scale``).
    """
    info = video_info(short_name)
    if scale not in ("proxy", "full"):
        raise ValueError(f"scale must be 'proxy' or 'full', got {scale!r}")
    if scale == "proxy":
        proxy_h = 96
        proxy_w = max(32, int(round(info.width / info.height * proxy_h / 16)) * 16)
        w = width if width is not None else proxy_w
        h = height if height is not None else proxy_h
        n = n_frames if n_frames is not None else 10
    else:
        w = width if width is not None else info.width
        h = height if height is not None else info.height
        n = n_frames if n_frames is not None else int(round(info.fps * 5))
    check_positive("n_frames", n)
    spec = scene_spec_for(info, width=w, height=h, n_frames=n)
    return generate_scene(spec)


#: The one process-wide clip memo: (name, width, height, n_frames) -> clip.
#: A process forked after an entry exists inherits it copy-on-write, which
#: is how a sweep's worker pool gets its clips without synthesizing any.
_CLIPS: dict[tuple[str, int, int, int], FrameSequence] = {}


def cached_video(
    name: str, *, width: int, height: int, n_frames: int
) -> FrameSequence:
    """:func:`load_video` at an explicit geometry, synthesized once per
    process.

    Every caller gets the same object, so its planes are read-only: a
    consumer that wrote into one would corrupt the clip for all the
    others (and un-share a forked worker's inherited pages).
    """
    key = (name, width, height, n_frames)
    video = _CLIPS.get(key)
    if video is None:
        obs.inc("video.loads")
        video = load_video(name, width=width, height=height, n_frames=n_frames)
        for frame in video:
            frame.luma.flags.writeable = False
        _CLIPS[key] = video
    return video

"""Shared fixtures: tiny deterministic clips and default configurations.

Everything here is sized for speed — unit tests run on 48x32 clips of a
handful of frames, which still exercise every code path (3x2 macroblocks
per frame, I/P/B frames, motion, skip, intra).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.settings import Settings
from repro.codec.options import EncoderOptions
from repro.trace.kernels import build_program
from repro.video.frame import Frame, FrameSequence
from repro.video.synthetic import SceneSpec, generate_scene


def pytest_configure(config):
    """Nothing below ``repro.api`` reads the environment, so the suite
    opts in here: ``REPRO_JOBS=2 pytest`` (CI's parallel leg) runs the
    engine sharded. The codec's oracles need no variable: the tests that
    hold ``src`` to them install them (``tests.oracles.oracle_codec``)."""
    Settings.from_env().apply()


@pytest.fixture(autouse=True)
def environment_settings():
    """Every test starts from, and is followed by, the environment's
    ``Settings``: whatever a test installs (``main([...])``,
    ``Settings(...).apply()``, ``install_plan``, ``install_policy``) is
    replaced on the way out. Conftest autouse fixtures are set up first
    and so torn down last — after ``monkeypatch`` has restored the
    environment."""
    yield
    Settings.from_env().apply()


@pytest.fixture(scope="session")
def tiny_video() -> FrameSequence:
    """A 48x32, 5-frame clip with moderate motion."""
    return generate_scene(
        SceneSpec(
            width=48, height=32, n_frames=5, fps=30.0,
            texture_detail=0.5, motion_magnitude=0.4, noise_level=0.1,
            n_sprites=3, seed=7, name="tiny",
        )
    )


@pytest.fixture(scope="session")
def static_video() -> FrameSequence:
    """A 48x32 clip with no motion at all (every frame identical)."""
    spec = SceneSpec(
        width=48, height=32, n_frames=4, fps=30.0,
        texture_detail=0.3, motion_magnitude=0.0, motion_irregularity=0.0,
        noise_level=0.0, n_sprites=2, seed=3, name="static",
    )
    clip = generate_scene(spec)
    first = clip.frames[0]
    return FrameSequence(frames=[first] * 4, fps=30.0, name="static")


@pytest.fixture(scope="session")
def busy_video() -> FrameSequence:
    """A 48x32 clip with heavy, irregular motion and scene cuts."""
    return generate_scene(
        SceneSpec(
            width=48, height=32, n_frames=6, fps=30.0,
            texture_detail=0.9, motion_magnitude=0.9, motion_irregularity=0.8,
            scene_cut_period=3, noise_level=0.3, n_sprites=6, seed=11,
            name="busy",
        )
    )


@pytest.fixture()
def default_options() -> EncoderOptions:
    return EncoderOptions(crf=23, refs=2, bframes=1)


@pytest.fixture()
def program():
    return build_program()


@pytest.fixture()
def gradient_frame() -> Frame:
    """A deterministic 32x32 gradient frame."""
    y, x = np.mgrid[0:32, 0:32]
    return Frame(((y * 4 + x * 3) % 256).astype(np.uint8))

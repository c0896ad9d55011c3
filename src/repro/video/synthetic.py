"""Procedural scene generation for synthetic benchmark videos.

The vbench clips cannot be redistributed, so we synthesize stand-ins whose
*complexity knobs* map onto the paper's single complexity axis (entropy):

- ``texture_detail`` — spatial high-frequency content (hurts intra coding),
- ``motion_magnitude`` — how far objects move per frame (hurts inter search),
- ``motion_irregularity`` — how unpredictable the motion is (defeats simple
  predictors, enlarging residuals),
- ``scene_cut_period`` — frames between hard cuts (forces I-frames),
- ``noise_level`` — sensor-like noise (incompressible energy).

A scene is a textured background plus a set of moving textured sprites, with
optional global pan and periodic cuts to a re-seeded scene. Everything is
deterministic given the spec's ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._util import check_positive, check_range, rng_for
from repro.video.frame import Frame, FrameSequence

__all__ = ["SceneSpec", "generate_scene"]


@dataclass(frozen=True)
class SceneSpec:
    """Parameters controlling a synthetic scene.

    All complexity knobs live in ``[0, 1]`` except ``scene_cut_period``
    (frames between cuts; 0 disables cuts) and the geometry fields.
    """

    width: int = 160
    height: int = 96
    n_frames: int = 12
    fps: float = 30.0
    texture_detail: float = 0.5
    motion_magnitude: float = 0.5
    motion_irregularity: float = 0.3
    scene_cut_period: int = 0
    noise_level: float = 0.1
    n_sprites: int = 6
    seed: int = 0
    name: str = "scene"

    def __post_init__(self) -> None:
        check_positive("width", self.width)
        check_positive("height", self.height)
        check_positive("n_frames", self.n_frames)
        check_positive("fps", self.fps)
        for field_name in (
            "texture_detail",
            "motion_magnitude",
            "motion_irregularity",
            "noise_level",
        ):
            check_range(field_name, getattr(self, field_name), 0.0, 1.0)
        if self.scene_cut_period < 0:
            raise ValueError("scene_cut_period must be >= 0")
        if self.n_sprites < 0:
            raise ValueError("n_sprites must be >= 0")

    def scaled(self, width: int, height: int, n_frames: int) -> SceneSpec:
        """Same scene content knobs at a different geometry (proxy scale)."""
        return replace(self, width=width, height=height, n_frames=n_frames)


def _texture(rng: np.random.Generator, h: int, w: int, detail: float) -> np.ndarray:
    """Multi-octave value-noise texture in ``[0, 255]`` float32.

    ``detail`` shifts energy into higher octaves: 0 gives smooth gradients
    (easy intra prediction), 1 gives near-white-noise texture.
    """
    out = np.zeros((h, w), dtype=np.float32)
    total_weight = 0.0
    # Octave cell sizes from coarse (32 px) down to fine (2 px).
    for octave, cell in enumerate([32, 16, 8, 4, 2]):
        gh, gw = max(2, h // cell + 2), max(2, w // cell + 2)
        grid = rng.random((gh, gw), dtype=np.float32)
        ys = np.linspace(0, gh - 1.001, h, dtype=np.float32)
        xs = np.linspace(0, gw - 1.001, w, dtype=np.float32)
        y0 = ys.astype(np.int64)
        x0 = xs.astype(np.int64)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        g00 = grid[np.ix_(y0, x0)]
        g01 = grid[np.ix_(y0, x0 + 1)]
        g10 = grid[np.ix_(y0 + 1, x0)]
        g11 = grid[np.ix_(y0 + 1, x0 + 1)]
        layer = (
            g00 * (1 - fy) * (1 - fx)
            + g01 * (1 - fy) * fx
            + g10 * fy * (1 - fx)
            + g11 * fy * fx
        )
        # Low detail weights coarse octaves; high detail weights fine ones.
        weight = (1.0 - detail) * (0.5**octave) + detail * (0.5 ** (4 - octave))
        out += weight * layer
        total_weight += weight
    out /= total_weight
    return out * 255.0


@dataclass
class _Sprite:
    patch: np.ndarray  # float32 texture patch
    x: float
    y: float
    vx: float
    vy: float


def _make_sprites(
    rng: np.random.Generator, spec: SceneSpec
) -> list[_Sprite]:
    sprites = []
    max_speed = spec.motion_magnitude * (1.0 + min(spec.width, spec.height) / 8.0)
    for _ in range(spec.n_sprites):
        size = int(rng.integers(max(4, spec.height // 8), max(6, spec.height // 3)))
        patch = _texture(rng, size, size, spec.texture_detail)
        angle = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.3, 1.0) * max_speed
        sprites.append(
            _Sprite(
                patch=patch,
                x=float(rng.uniform(0, spec.width - size)),
                y=float(rng.uniform(0, spec.height - size)),
                vx=float(np.cos(angle) * speed),
                vy=float(np.sin(angle) * speed),
            )
        )
    return sprites


def _composite(
    background: np.ndarray, sprites: list[_Sprite], pan: tuple[float, float]
) -> np.ndarray:
    h, w = background.shape
    px, py = pan
    # Global pan: roll the background by integer pixels.
    canvas = np.roll(background, (int(round(py)), int(round(px))), axis=(0, 1)).copy()
    for sprite in sprites:
        sh, sw = sprite.patch.shape
        x0 = int(round(sprite.x)) % w
        y0 = int(round(sprite.y)) % h
        xs = (np.arange(sw) + x0) % w
        ys = (np.arange(sh) + y0) % h
        canvas[np.ix_(ys, xs)] = sprite.patch
    return canvas


def generate_scene(spec: SceneSpec) -> FrameSequence:
    """Generate a deterministic synthetic clip from ``spec``.

    The returned sequence has exactly ``spec.n_frames`` frames of
    ``spec.width`` x ``spec.height`` luma at ``spec.fps``.
    """
    rng = rng_for("scene", spec.seed, spec.name)
    background = _texture(rng, spec.height, spec.width, spec.texture_detail)
    sprites = _make_sprites(rng, spec)
    pan_speed = spec.motion_magnitude * 2.0
    pan_angle = rng.uniform(0, 2 * np.pi)
    pan = [0.0, 0.0]

    frames: list[Frame] = []
    for t in range(spec.n_frames):
        if (
            spec.scene_cut_period > 0
            and t > 0
            and t % spec.scene_cut_period == 0
        ):
            # Hard cut: new background and sprites (forces I-frame upstream).
            background = _texture(rng, spec.height, spec.width, spec.texture_detail)
            sprites = _make_sprites(rng, spec)
            pan_angle = rng.uniform(0, 2 * np.pi)
        canvas = _composite(background, sprites, (pan[0], pan[1]))
        if spec.noise_level > 0:
            noise = rng.normal(0.0, spec.noise_level * 24.0, canvas.shape)
            canvas = canvas + noise
        luma = np.clip(canvas, 0, 255).astype(np.uint8)
        frames.append(Frame(luma))
        # Advance motion for the next frame.
        pan[0] += pan_speed * np.cos(pan_angle)
        pan[1] += pan_speed * np.sin(pan_angle)
        for sprite in sprites:
            if spec.motion_irregularity > 0:
                jitter = spec.motion_irregularity * spec.motion_magnitude * 2.0
                sprite.vx += float(rng.normal(0, jitter))
                sprite.vy += float(rng.normal(0, jitter))
            sprite.x += sprite.vx
            sprite.y += sprite.vy
    return FrameSequence(frames=frames, fps=spec.fps, name=spec.name)

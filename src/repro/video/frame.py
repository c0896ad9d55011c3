"""Frame and frame-sequence containers.

Frames carry 8-bit luma planes only: the codec operates on luma, which is
where virtually all of the encoding work in x264 happens. Dimensions are
padded to macroblock (16 pixel) multiples by the codec, not here; the
containers preserve the source geometry exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

import numpy as np

from repro._util import check_positive

MB_SIZE = 16
"""Macroblock edge length in pixels, fixed by H.264."""


@dataclass(frozen=True)
class Frame:
    """A single video frame.

    Parameters
    ----------
    luma:
        2-D ``uint8`` array of shape ``(height, width)``.
    """

    luma: np.ndarray

    def __post_init__(self) -> None:
        if self.luma.ndim != 2:
            raise ValueError(f"luma must be 2-D, got shape {self.luma.shape}")
        if self.luma.dtype != np.uint8:
            raise ValueError(f"luma must be uint8, got {self.luma.dtype}")

    @property
    def height(self) -> int:
        return int(self.luma.shape[0])

    @property
    def width(self) -> int:
        return int(self.luma.shape[1])

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` in pixels."""
        return (self.width, self.height)

    def padded_luma(self, multiple: int = MB_SIZE) -> np.ndarray:
        """Luma plane edge-padded so both dimensions divide ``multiple``."""
        h, w = self.luma.shape
        ph = (-h) % multiple
        pw = (-w) % multiple
        if ph == 0 and pw == 0:
            return self.luma
        return np.pad(self.luma, ((0, ph), (0, pw)), mode="edge")

    def downscale(self, factor: int) -> Frame:
        """Block-average downscale by an integer factor (luma only)."""
        check_positive("factor", factor)
        h = (self.height // factor) * factor
        w = (self.width // factor) * factor
        if h == 0 or w == 0:
            raise ValueError(f"frame {self.resolution} too small for factor {factor}")
        block = self.luma[:h, :w].reshape(h // factor, factor, w // factor, factor)
        out = block.astype(np.uint16).mean(axis=(1, 3)).astype(np.uint8)
        return Frame(out)


@dataclass
class FrameSequence:
    """An ordered sequence of equally sized frames with a frame rate."""

    frames: list[Frame]
    fps: float
    name: str = "unnamed"
    _validated: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("fps", self.fps)
        if not self.frames:
            raise ValueError("FrameSequence requires at least one frame")
        first = self.frames[0].resolution
        for i, frame in enumerate(self.frames):
            if frame.resolution != first:
                raise ValueError(
                    f"frame {i} resolution {frame.resolution} != {first}"
                )
        self._validated = True

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, index: int) -> Frame:
        return self.frames[index]

    @property
    def resolution(self) -> tuple[int, int]:
        return self.frames[0].resolution

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def lumas(self) -> np.ndarray:
        """All luma planes stacked into one ``(n, h, w)`` array."""
        return np.stack([f.luma for f in self.frames])

    def downscale(self, factor: int) -> FrameSequence:
        """Downscale every frame; used to build proxy-scale sweep inputs."""
        return FrameSequence(
            frames=[f.downscale(factor) for f in self.frames],
            fps=self.fps,
            name=f"{self.name}@1/{factor}",
        )

    def clip(self, n_frames: int) -> FrameSequence:
        """First ``n_frames`` frames as a new sequence."""
        check_positive("n_frames", n_frames)
        return FrameSequence(
            frames=self.frames[:n_frames], fps=self.fps, name=self.name
        )

    @staticmethod
    def from_lumas(
        lumas: Sequence[np.ndarray] | np.ndarray, fps: float, name: str = "unnamed"
    ) -> FrameSequence:
        """Build a sequence from an iterable/stack of uint8 luma planes."""
        return FrameSequence(
            frames=[Frame(np.asarray(p, dtype=np.uint8)) for p in lumas],
            fps=fps,
            name=name,
        )

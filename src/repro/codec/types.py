"""Core codec datatypes: frame types, macroblock modes, stream records.

The encoder emits a structured in-memory representation of each coded
macroblock alongside the real bitstream; the decoder and the trace
recorder both consume these records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrameType",
    "MBMode",
    "FRAME_TYPE_IDS",
    "MODE_IDS",
    "IntraMode",
    "MotionVector",
    "CodedMacroblock",
    "CodedFrame",
    "CodedStream",
    "FrameStats",
]


class FrameType(enum.Enum):
    """Inter-frame coding picture types (paper §II-A)."""

    I = "I"  # noqa: E741 - standard codec terminology
    P = "P"
    B = "B"


class MBMode(enum.Enum):
    """Macroblock coding mode after mode decision (paper §II-B3)."""

    INTRA_16X16 = "i16x16"
    INTRA_4X4 = "i4x4"
    INTRA_8X8 = "i8x8"
    INTER_16X16 = "p16x16"
    INTER_8X8 = "p8x8"
    INTER_4X4 = "p4x4"
    BI = "b16x16"
    SKIP = "skip"

    @property
    def is_intra(self) -> bool:
        return self in (MBMode.INTRA_16X16, MBMode.INTRA_4X4, MBMode.INTRA_8X8)

    @property
    def is_inter(self) -> bool:
        return not self.is_intra and self is not MBMode.SKIP


#: The bitstream's ue-coded ids: the encoder writes them, the decoder
#: switches on them.
FRAME_TYPE_IDS = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}
MODE_IDS = {
    MBMode.SKIP: 0,
    MBMode.INTER_16X16: 1,
    MBMode.INTER_8X8: 2,
    MBMode.INTER_4X4: 3,
    MBMode.BI: 4,
    MBMode.INTRA_16X16: 5,
    MBMode.INTRA_4X4: 6,
    MBMode.INTRA_8X8: 7,
}


class IntraMode(enum.IntEnum):
    """Simplified intra prediction directions (subset of H.264's nine)."""

    DC = 0
    VERTICAL = 1
    HORIZONTAL = 2
    PLANE = 3


@dataclass(frozen=True)
class MotionVector:
    """A motion vector in quarter-pel units plus its reference index."""

    dx: int
    dy: int
    ref: int = 0

    def __add__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.dx + other.dx, self.dy + other.dy, self.ref)

    @property
    def full_pel(self) -> tuple[int, int]:
        """Integer-pel component ``(dx, dy)``."""
        return (self.dx >> 2, self.dy >> 2)


@dataclass(kw_only=True)
class CodedMacroblock:
    """Everything needed to decode one macroblock."""

    mb_x: int
    mb_y: int
    mode: MBMode
    qp: int
    intra_mode: IntraMode = IntraMode.DC
    # Per-4x4-block prediction modes for INTRA_4X4 macroblocks.
    intra_modes4: list[int] = field(default_factory=list)
    # Motion vectors per partition; a single entry for 16x16 modes.
    mvs: list[MotionVector] = field(default_factory=list)
    mv1: MotionVector | None = None  # second (future) MV for bi-prediction
    # Quantized transform coefficients: (n_blocks, 4, 4) int32, zigzagged
    # at entropy-coding time. Empty array for SKIP.
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros((0, 4, 4), np.int32))
    bits: int = 0  # exact bitstream cost of this MB


@dataclass
class CodedFrame:
    """A coded picture: type, per-MB records, and reconstruction."""

    index: int  # display order
    frame_type: FrameType
    qp: int
    macroblocks: list[CodedMacroblock]
    recon: np.ndarray  # uint8 reconstructed (padded) luma
    bits: int = 0

    @property
    def mb_count(self) -> int:
        return len(self.macroblocks)


@dataclass
class FrameStats:
    """Per-frame encoding statistics: type, QP, bits and macroblock modes."""

    frame_type: FrameType
    qp: int
    bits: int
    skip_mbs: int
    intra_mbs: int
    inter_mbs: int


@dataclass
class CodedStream:
    """A fully coded clip: header info plus frames in decode order."""

    width: int
    height: int
    fps: float
    frames: list[CodedFrame]
    bitstream: bytes = b""

    @property
    def total_bits(self) -> int:
        return sum(f.bits for f in self.frames)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def frames_in_display_order(self) -> list[CodedFrame]:
        return sorted(self.frames, key=lambda f: f.index)

"""Encoder option set — the x264 parameter surface the paper sweeps.

``crf`` and ``refs`` are the paper's two headline parameters (§III-A);
the remaining options are the Table II preset knobs. Defaults match the
x264 ``medium`` preset with crf 23 and refs 3, exactly the paper's
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro._util import check_choice, check_range

__all__ = ["EncoderOptions", "ME_METHODS", "PARTITION_SETS"]

ME_METHODS = ("dia", "hex", "umh", "esa", "tesa")
"""Integer-pel motion estimation search patterns (§II-B2)."""

PARTITION_SETS = ("none", "i8x8,i4x4", "-p4x4", "default", "all")
"""Macroblock partition search sets, Table II ``partitions`` row."""


@dataclass(frozen=True)
class EncoderOptions:
    """All configurable encoding parameters.

    Attributes mirror x264 option names used in the paper's Table II.
    Rate control is CRF throughout (:mod:`repro.codec.ratecontrol`).
    Instances are immutable; use :meth:`with_updates` to derive variants.
    """

    # --- headline sweep parameters (paper §III-A) ---
    crf: int = 23  # 0 (lossless-ish) .. 51 (worst quality)
    refs: int = 3  # 1 .. 16 reference frames

    # --- Table II preset options ---
    aq_mode: int = 1  # 0 off, 1 variance-based adaptive quant
    b_adapt: int = 1  # 0 fixed, 1 fast, 2 optimal lookahead
    bframes: int = 3  # max consecutive B frames
    deblock: tuple[int, int] = (1, 0)  # (enabled/strength, threshold offset)
    me: str = "hex"
    merange: int = 16
    partitions: str = "-p4x4"
    scenecut: int = 40  # 0 disables scene-cut detection
    subme: int = 7  # 0 .. 11 subpixel refinement / RD level
    trellis: int = 1  # 0 off, 1 final-encode, 2 all-decisions

    # --- GOP structure ---
    keyint: int = 250  # max I-frame interval

    preset_name: str = "medium"

    def __post_init__(self) -> None:
        check_range("crf", self.crf, 0, 51)
        check_range("refs", self.refs, 1, 16)
        check_choice("me", self.me, ME_METHODS)
        check_range("merange", self.merange, 4, 64)
        check_choice("partitions", self.partitions, PARTITION_SETS)
        check_range("subme", self.subme, 0, 11)
        check_choice("trellis", self.trellis, (0, 1, 2))
        check_choice("aq_mode", self.aq_mode, (0, 1))
        check_choice("b_adapt", self.b_adapt, (0, 1, 2))
        check_range("bframes", self.bframes, 0, 16)
        check_range("scenecut", self.scenecut, 0, 100)
        check_range("keyint", self.keyint, 1, 1000)

    def with_updates(self, **changes: object) -> "EncoderOptions":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    @property
    def deblock_enabled(self) -> bool:
        return self.deblock[0] != 0

    @property
    def partition_candidates(self) -> tuple[str, ...]:
        """Which sub-16x16 partition shapes the mode decision searches."""
        if self.partitions == "none":
            return ()
        if self.partitions == "i8x8,i4x4":
            return ("i4x4",)
        if self.partitions == "-p4x4":
            return ("i4x4", "p8x8")
        if self.partitions == "default":
            return ("i4x4", "p8x8")
        return ("i4x4", "p8x8", "p4x4")  # "all"

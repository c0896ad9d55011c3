"""Transcoding tasks: a clip plus its parameter set (paper Table III)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec.options import EncoderOptions
from repro.codec.presets import preset_options
from repro.video.frame import FrameSequence
from repro.video.vbench import load_video

__all__ = ["TranscodeTask", "TABLE_III_TASKS"]


@dataclass(frozen=True)
class TranscodeTask:
    """One transcoding job to be placed on a server."""

    task_id: int
    video: str  # vbench short name
    crf: int
    refs: int
    preset: str

    def options(self) -> EncoderOptions:
        return preset_options(self.preset, crf=self.crf, refs=self.refs)

    def load(
        self,
        *,
        width: int | None = None,
        height: int | None = None,
        n_frames: int | None = None,
    ) -> FrameSequence:
        return load_video(
            self.video, width=width, height=height, n_frames=n_frames
        )

    def describe(self) -> str:
        return (
            f"task {self.task_id}: {self.video} crf={self.crf} "
            f"refs={self.refs} preset={self.preset}"
        )


#: Table III, verbatim.
TABLE_III_TASKS: tuple[TranscodeTask, ...] = (
    TranscodeTask(1, "desktop", 30, 8, "veryfast"),
    TranscodeTask(2, "holi", 10, 1, "slow"),
    TranscodeTask(3, "presentation", 35, 6, "veryfast"),
    TranscodeTask(4, "game2", 15, 2, "medium"),
)

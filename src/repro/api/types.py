"""Typed records shared by every blessed ``repro.api`` workflow.

Three dataclasses form the contract between callers, the CLI, and the
long-lived transcoding service:

- :class:`TranscodeRequest` — what to transcode (clip + preset/crf/refs)
  and how urgently (priority, optional deadline);
- :class:`TranscodeResult` — what came out: the Fig. 2 speed / quality /
  size triangle, plus simulated cycles and the placed configuration when
  the request went through a worker fleet;
- :class:`JobStatus` — one job's lifecycle snapshot inside the service
  (``queued`` → ``running`` → ``done`` | ``failed``).

The request and the job status write plain-JSON payloads
(``to_payload``); a result is written inside its job status's. Only the
request is read back (``TranscodeRequest.from_payload``, the CLI spool
file's line reader). A job status is written once, into the ``jobs.json``
artifact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any

from repro.codec.options import EncoderOptions
from repro.codec.presets import PRESET_NAMES, preset_options

__all__ = [
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_STATES",
    "QUICK_SIZING",
    "JobStatus",
    "TranscodeRequest",
    "TranscodeResult",
]

#: Proxy-clip sizing behind every ``--quick`` flag.
QUICK_SIZING = {"width": 48, "height": 32, "n_frames": 4}

#: Job lifecycle states, in order of progression.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)


@dataclass(frozen=True)
class TranscodeRequest:
    """One transcoding job submission.

    ``clip`` is a vbench short name (paper Table I); ``preset`` / ``crf``
    / ``refs`` are the x264-style knobs of Table II (``refs=None`` keeps
    the preset's own Table II value). ``priority`` orders dispatch
    (higher first, FIFO within a priority class); ``deadline_ms`` is an
    optional soft deadline carried into status artifacts.
    """

    clip: str
    preset: str = "medium"
    crf: int = 23
    refs: int | None = None
    priority: int = 0
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.clip:
            raise ValueError("request needs a clip name")
        if self.preset not in PRESET_NAMES:
            raise ValueError(
                f"unknown preset {self.preset!r}; "
                f"choose from {', '.join(PRESET_NAMES)}"
            )
        if not 0 <= self.crf <= 51:
            raise ValueError(f"crf must be in [0, 51], got {self.crf}")
        if self.refs is not None and self.refs < 1:
            raise ValueError(f"refs must be >= 1, got {self.refs}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when given")

    def options(self) -> EncoderOptions:
        """The encoder options this request resolves to."""
        return preset_options(self.preset, crf=self.crf, refs=self.refs)

    def content_key(self) -> tuple[object, ...]:
        """Hashable identity of the *work* (excludes priority/deadline,
        which affect ordering but not the computation)."""
        return (self.clip, self.preset, self.crf, self.refs)

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form (spool lines, artifacts)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TranscodeRequest":
        """Inverse of :meth:`to_payload`; unknown keys are rejected."""
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown TranscodeRequest fields: {sorted(unknown)}"
            )
        if "clip" not in payload:
            raise ValueError("TranscodeRequest payload needs a 'clip'")
        kwargs = dict(payload)
        clip = kwargs.pop("clip")
        return cls(clip=str(clip), **kwargs)


@dataclass(frozen=True)
class TranscodeResult:
    """What one transcode produced: the speed / quality / size triangle,
    plus placement facts when the job ran on a simulated worker.

    ``cycles`` / ``config`` / ``baseline_cycles`` are ``None`` for plain
    :func:`repro.api.encode` calls (no simulation); the service fills
    them from the worker's microarchitecture simulation.
    """

    clip: str
    preset: str
    crf: int
    refs: int | None
    psnr_db: float
    bitrate_kbps: float
    encode_seconds: float
    cycles: float | None = None
    config: str | None = None
    baseline_cycles: float | None = None

    @property
    def speedup_pct(self) -> float | None:
        """Speedup over the baseline configuration in %, when simulated."""
        if self.cycles is None or self.baseline_cycles is None:
            return None
        return (self.baseline_cycles / self.cycles - 1.0) * 100.0


@dataclass
class JobStatus:
    """A snapshot of one service job's lifecycle."""

    job_id: int
    state: str
    clip: str
    preset: str
    crf: int
    refs: int | None
    priority: int = 0
    attempts: int = 0
    worker: str | None = None
    error: str | None = None
    result: TranscodeResult | None = field(default=None, repr=False)
    trace_id: str | None = None
    #: Per-stage wall-clock seconds (queue_wait_s, placement_s,
    #: encode_s, retry_overhead_s, e2e_s), filled as the job progresses.
    timings: dict[str, float] = field(default_factory=dict)
    #: Dollars billed for this job's worker occupancy (encode plus any
    #: retry/crash time, at the executing workers' hourly rates).
    cost_usd: float = 0.0

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {self.state!r}; "
                f"expected one of {', '.join(JOB_STATES)}"
            )

    @property
    def terminal(self) -> bool:
        """Whether the job has finished (successfully or not)."""
        return self.state in (JOB_DONE, JOB_FAILED)

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form for the ``jobs.json`` status artifact (``asdict``
        writes the result as a nested dict)."""
        return asdict(self)

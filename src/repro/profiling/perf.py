"""One-call profiling of a transcode, perf-stat style.

``profile_transcode`` is the workhorse behind every experiment: it
encodes a clip under a recording tracer, simulates the resulting trace on
a microarchitecture configuration, and returns both the transcoding
metrics and the full counter set. The program (kernel catalog + code
layout) is injectable so the compiler-optimization experiments can swap
in AutoFDO layouts and Graphite loop transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec.encoder import EncodeResult, Encoder, LoopOptimizations
from repro.codec.options import EncoderOptions
from repro.obs import session as obs
from repro.profiling.counters import CounterSet
from repro.resilience.faults import fault_point
from repro.trace.events import TraceStream
from repro.trace.kernels import build_program
from repro.trace.program import Program
from repro.trace.recorder import RecordingTracer
from repro.uarch.config import MicroarchConfig
from repro.uarch.configs import baseline_config
from repro.uarch.simulator import SimReport, simulate
from repro.video.frame import FrameSequence

__all__ = ["ProfileResult", "profile_transcode", "record_trace"]

#: Data-capacity scale used when callers do not pick one. Chosen so the
#: proxy clips' footprints relate to the (scaled) cache capacities the way
#: the paper's full-size clips relate to the real Xeon's (see DESIGN.md).
DEFAULT_DATA_SCALE = 48.0


@dataclass
class ProfileResult:
    """Everything one profiled transcode produced."""

    encode: EncodeResult
    report: SimReport
    counters: CounterSet
    program: Program


def record_trace(
    video: FrameSequence,
    options: EncoderOptions,
    *,
    program: Program | None = None,
    loop_opts: LoopOptimizations | None = None,
    sample: int = 1,
) -> tuple[EncodeResult, TraceStream, Program]:
    """Encode ``video`` under a recording tracer: the one place a trace
    is made. ``program`` defaults to the stock kernel catalog + layout;
    the returned stream replays on any config via ``simulate``."""
    prog = program if program is not None else build_program()
    tracer = RecordingTracer(prog, sample=sample)
    result = Encoder(options, tracer=tracer, loop_opts=loop_opts).encode(video)
    return result, tracer.stream, prog


def profile_transcode(
    video: FrameSequence,
    options: EncoderOptions | None = None,
    *,
    config: MicroarchConfig | None = None,
    program: Program | None = None,
    loop_opts: LoopOptimizations | None = None,
    sample: int = 1,
    data_capacity_scale: float | None = None,
) -> ProfileResult:
    """Encode ``video`` under a tracer and simulate the trace.

    Parameters
    ----------
    config:
        Microarchitecture to simulate; defaults to the Table IV baseline.
    program:
        Kernel catalog + code layout; defaults to the stock (un-optimized)
        layout. Pass an AutoFDO-optimized program to measure FDO effects.
    loop_opts:
        Graphite loop transformations to apply to the encoder's access
        streams.
    sample:
        Trace sampling rate (1 = exact; N records every Nth invocation).
    data_capacity_scale:
        Overrides the config's data-side capacity scaling; defaults to
        :data:`DEFAULT_DATA_SCALE` when the config does not set one.
    """
    fault_point("encoder.profile", detail=video.name)
    opts = options if options is not None else EncoderOptions()
    cfg = config if config is not None else baseline_config()
    if data_capacity_scale is not None:
        cfg = cfg.with_updates(data_capacity_scale=data_capacity_scale)
    elif cfg.data_capacity_scale == 1.0:
        cfg = cfg.with_updates(data_capacity_scale=DEFAULT_DATA_SCALE)

    with obs.span(
        "profile_transcode",
        video=video.name,
        preset=opts.preset_name,
        crf=opts.crf,
        refs=opts.refs,
        config=cfg.name,
    ):
        encode_result, stream, prog = record_trace(
            video, opts, program=program, loop_opts=loop_opts, sample=sample
        )
        report = simulate(stream, prog, cfg)
    counters = CounterSet.from_report(
        report,
        psnr_db=encode_result.psnr_db,
        bitrate_kbps=encode_result.bitrate_kbps,
    )
    _absorb_profile(stream, counters)
    return ProfileResult(
        encode=encode_result, report=report, counters=counters, program=prog
    )


def _absorb_profile(stream: TraceStream, counters: CounterSet) -> None:
    """Fold one profiled transcode into the active metrics registry."""
    tel = obs.current()
    if tel is None:
        return
    m = tel.metrics
    m.counter("profile.transcodes").inc()
    for kernel, calls in stream.kernel_calls.items():
        m.counter(f"encoder.kernel_calls.{kernel}").inc(calls)
    # Top-down slot shares and the Fig. 2 triangle, as distributions over
    # the run's profiled points — run.json summarizes their means.
    for name in ("retiring", "bad_speculation", "frontend_bound",
                 "backend_bound", "memory_bound", "core_bound"):
        m.histogram(f"topdown.{name}").observe(getattr(counters, name))
    m.histogram("profile.time_seconds").observe(counters.time_seconds)
    m.histogram("profile.psnr_db").observe(counters.psnr_db)
    m.histogram("profile.bitrate_kbps").observe(counters.bitrate_kbps)
    m.histogram("profile.ipc").observe(counters.ipc)

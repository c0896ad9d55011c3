"""Profile a transcode, then recompile with AutoFDO and Graphite.

Run with::

    python examples/profile_and_optimize.py

Reproduces the paper's §III-D workflow end to end:

1. profile a transcode with the VTune-style top-down analysis,
2. collect a training profile (the ``perf record`` step) on
   representative clips,
3. "recompile" with AutoFDO (profile-guided layout + branch hints) and
   with Graphite (polyhedral loop transforms),
4. measure the speedups and show *where* they come from.
"""

from __future__ import annotations

from repro.codec.encoder import Encoder
from repro.codec.options import EncoderOptions
from repro.optim.pipeline import build_autofdo, build_default, build_graphite
from repro.optim.profile import collect_profile
from repro.profiling.perf import profile_transcode
from repro.profiling.vtune import topdown_report
from repro.trace.recorder import RecordingTracer
from repro.video.vbench import load_video


def main() -> None:
    options = EncoderOptions(crf=23, refs=3)
    target = load_video("cricket", width=128, height=80, n_frames=10)

    # --- 1. baseline profile -----------------------------------------
    base = profile_transcode(target, options)
    print(topdown_report(base.report, title="cricket, default -O2 build"))

    # --- 2. training profile (perf record on representative inputs) ---
    print("\ncollecting AutoFDO training profile on desktop + holi ...")
    streams = []
    for name in ("desktop", "holi"):
        clip = load_video(name, width=128, height=80, n_frames=6)
        build = build_default()
        tracer = RecordingTracer(build.program)
        Encoder(options, tracer=tracer).encode(clip)
        streams.append(tracer.stream)
    profile = collect_profile(streams)
    hottest = profile.hottest_first()[:5]
    print("hottest kernels:", ", ".join(
        f"{k} ({100 * profile.heat(k):.1f}%)" for k in hottest
    ))

    # --- 3. rebuilds ----------------------------------------------------
    fdo = build_autofdo(profile)
    graphite = build_graphite()
    print(f"\n{fdo.describe()}")
    print(f"{graphite.describe()}")

    # --- 4. measurement -------------------------------------------------
    fdo_run = profile_transcode(target, options, program=fdo.program)
    gr_run = profile_transcode(
        target, options, program=graphite.program, loop_opts=graphite.loop_opts
    )

    def speedup(run):
        return (base.report.cycles / run.report.cycles - 1) * 100

    print("\n--- results (paper: AutoFDO 4.66% avg, Graphite 4.42% avg) ---")
    print(f"AutoFDO : {speedup(fdo_run):+5.2f}%   "
          f"L1i MPKI {base.counters.l1i_mpki:.2f} -> "
          f"{fdo_run.counters.l1i_mpki:.2f}, "
          f"branch MPKI {base.counters.branch_mpki:.2f} -> "
          f"{fdo_run.counters.branch_mpki:.2f}")
    print(f"Graphite: {speedup(gr_run):+5.2f}%   "
          f"L1d MPKI {base.counters.l1d_mpki:.2f} -> "
          f"{gr_run.counters.l1d_mpki:.2f}, "
          f"L2 MPKI {base.counters.l2_mpki:.2f} -> "
          f"{gr_run.counters.l2_mpki:.2f}")

    same_fdo = base.encode.stream.bitstream == fdo_run.encode.stream.bitstream
    same_gr = base.encode.stream.bitstream == gr_run.encode.stream.bitstream
    print(f"\nbitstreams unchanged by recompilation: "
          f"AutoFDO={same_fdo} Graphite={same_gr}")


if __name__ == "__main__":
    main()

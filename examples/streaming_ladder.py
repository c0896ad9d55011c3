"""Streaming ladder: pick crf/preset per rung like an adaptive service.

Run with::

    python examples/streaming_ladder.py

A streaming provider transcodes each upload into a ladder of renditions
(different quality/size points). This example sweeps crf and preset on
one clip, prints the trade-off surface, and shows how the
microarchitectural profile shifts along the ladder — the phenomenon the
paper characterizes in Figures 3-6.
"""

from __future__ import annotations

from repro._util import format_table
from repro.codec.presets import preset_options
from repro.profiling.perf import profile_transcode
from repro.video.vbench import load_video


def main() -> None:
    video = load_video("game2", width=128, height=80, n_frames=10)
    print(f"upload: {video.name} {video.width}x{video.height} proxy\n")

    # A typical ladder: high-quality archive down to bandwidth-saver.
    ladder = [
        ("archive", preset_options("slow", crf=12, refs=3)),
        ("hd", preset_options("medium", crf=23, refs=3)),
        ("sd", preset_options("fast", crf=31, refs=2)),
        ("saver", preset_options("veryfast", crf=40, refs=1)),
    ]

    rows = []
    for rung, options in ladder:
        profiled = profile_transcode(video, options)
        c = profiled.counters
        rows.append([
            rung, options.preset_name, options.crf,
            c.psnr_db, c.bitrate_kbps, c.time_seconds * 1e3,
            c.backend_bound, c.bad_speculation, c.branch_mpki, c.l1d_mpki,
        ])

    print(format_table(
        ["rung", "preset", "crf", "PSNR", "kbps", "sim ms",
         "BE%", "BS%", "brMPKI", "L1dMPKI"],
        rows,
        floatfmt=".1f",
    ))

    print(
        "\nNote how the bandwidth-saver rungs (high crf) become more "
        "back-end/memory bound while branch behaviour gets more "
        "predictable — exactly the paper's Fig. 3/5 trend. A scheduler "
        "could route them to cache-rich servers (see cloud_scheduler.py)."
    )


if __name__ == "__main__":
    main()

"""Quickstart: transcode a vbench clip and inspect the result.

Run with::

    python examples/quickstart.py

Loads the synthetic stand-in for vbench's ``cricket`` clip, transcodes it
with the x264 ``medium`` preset at crf 23 (the paper's defaults), prints
the speed/quality/size triangle, and verifies the bitstream decodes back
to the encoder's reconstruction bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.codec.decoder import decode
from repro.ffmpeg.transcode import transcode
from repro.video.vbench import load_video


def main() -> None:
    # The proxy scale keeps this instant; scale="full" renders the
    # catalog geometry (1280x720 for cricket).
    video = load_video("cricket", width=160, height=96, n_frames=12)
    print(f"input: {video.name} {video.width}x{video.height} "
          f"{len(video)} frames @ {video.fps:g} fps")

    result = transcode(video, preset="medium", crf=23)
    enc = result.encode
    print("\n--- the speed / quality / size triangle (paper Fig. 2) ---")
    print(f"speed   : {result.total_seconds * 1e3:8.1f} ms wall clock")
    print(f"quality : {result.quality_psnr_db:8.2f} dB PSNR")
    print(f"size    : {result.size_bitrate_kbps:8.1f} kbps "
          f"({enc.total_bits} bits)")

    types = "".join(t.value for t in enc.gop.frame_types)
    print(f"\nGOP structure (display order): {types}")
    skips = sum(s.skip_mbs for s in enc.frame_stats)
    total_mbs = enc.stream.frames[0].mb_count * len(video)
    print(f"skip macroblocks: {skips}/{total_mbs} "
          f"({100 * skips / total_mbs:.1f}%)")

    # Round-trip check: the decoder must reproduce the encoder's
    # reconstruction exactly.
    decoded = decode(result.bitstream)
    recon = np.stack(
        [f.recon[: video.height, : video.width]
         for f in enc.stream.frames_in_display_order()]
    )
    exact = np.array_equal(recon, np.stack([f.luma for f in decoded.video]))
    print(f"\ndecoder round-trip bit-exact: {exact}")
    assert exact


if __name__ == "__main__":
    main()

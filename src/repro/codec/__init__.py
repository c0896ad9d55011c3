"""A from-scratch H.264-style transcoding codec (the FFmpeg/x264 substitute).

This package implements the encoder structure the paper characterizes:
GOP and frame-type decision (scenecut, b-adapt, bframes), macroblock
partitioning, intra prediction, motion estimation with the x264 search
patterns (dia/hex/umh/esa/tesa), integer transform, quantization with
three trellis levels, six rate-control modes, an exp-Golomb entropy coder
with a real decodable bitstream, an in-loop deblocking filter, and the ten
x264 presets with the exact option values from the paper's Table II.

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []

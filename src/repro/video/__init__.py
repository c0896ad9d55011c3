"""Video substrate: frames, synthetic sources, the vbench catalog, metrics.

The paper evaluates FFmpeg/x264 on the public vbench suite. Offline we
cannot ship the real clips, so :mod:`repro.video.vbench` procedurally
regenerates stand-ins with the published resolution, frame rate, and
entropy ordering (Table I of the paper), and :mod:`repro.video.synthetic`
provides the underlying scene generators.

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []

"""FFmpeg-style facade: the transcode pipeline.

The paper profiles ``ffmpeg -i in.mkv -c:v libx264 ...`` invocations;
:func:`repro.ffmpeg.transcode.transcode` is our equivalent entry point
(decode → optional scale filter → encode); :func:`repro.api.encode` and
:func:`repro.api.profile` are the front doors to it.

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []

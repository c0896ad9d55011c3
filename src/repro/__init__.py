"""repro: a reproduction of "CPU Microarchitectural Performance
Characterization of Cloud Video Transcoding" (IISWC 2020).

Public API surface
------------------
- :mod:`repro.api` — **the blessed facade**: typed requests/results, the
  consolidated :class:`~repro.api.Settings`, and one entry point per
  workflow (encode, profile, sweep, schedule, serve);
- :mod:`repro.service` — the long-lived transcoding job service
  (:mod:`~repro.service.service`, :mod:`~repro.service.fleetcompare`,
  ...; the package re-exports nothing);
- :mod:`repro.loadgen` — open-loop load generation on the service
  (:mod:`~repro.loadgen.driver`, :mod:`~repro.loadgen.arrivals`,
  :mod:`~repro.loadgen.mixes`; the package re-exports nothing);
- :mod:`repro.video` — frames, synthetic vbench stand-ins, quality metrics;
- :mod:`repro.codec` — the x264-style encoder/decoder and the ten presets;
- :mod:`repro.ffmpeg` — the transcode pipeline and CLI facade;
- :mod:`repro.trace` — execution tracing (the codec -> simulator bridge);
- :mod:`repro.uarch` — the Sniper-style µarch simulator and Table IV configs;
- :mod:`repro.profiling` — VTune/perf-style profiling over the simulator;
- :mod:`repro.optim` — AutoFDO and Graphite compiler-optimization models;
- :mod:`repro.scheduling` — the smart-scheduler case study
  (:mod:`~repro.scheduling.casestudy`, :mod:`~repro.scheduling.task`,
  ...; the package re-exports nothing);
- :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import api

    result = api.encode("cricket", preset="medium", crf=23)
    profiled = api.profile("cricket")
    print(profiled.counters.backend_bound)
"""

from repro.codec import EncoderOptions, decode, encode, preset_options
from repro.video import load_video

__version__ = "2.0.0"

__all__ = [
    "encode",
    "decode",
    "EncoderOptions",
    "preset_options",
    "load_video",
    "__version__",
]

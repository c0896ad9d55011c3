"""repro: a reproduction of "CPU Microarchitectural Performance
Characterization of Cloud Video Transcoding" (IISWC 2020).

Public API surface
------------------
:mod:`repro.api` is **the blessed facade** and the only package that
re-exports: typed requests/results, the consolidated
:class:`~repro.api.Settings`, and one entry point per workflow (encode,
profile, sweep, schedule, serve). Every other package re-exports
nothing; import each name from the submodule that owns it:

- :mod:`repro.service` — the long-lived transcoding job service
  (:mod:`~repro.service.service`, :mod:`~repro.service.fleetcompare`, ...);
- :mod:`repro.loadgen` — open-loop load generation on the service
  (:mod:`~repro.loadgen.driver`, :mod:`~repro.loadgen.arrivals`,
  :mod:`~repro.loadgen.mixes`);
- :mod:`repro.video` — frames, synthetic vbench stand-ins, quality metrics
  (:mod:`~repro.video.vbench`, :mod:`~repro.video.frame`, ...);
- :mod:`repro.codec` — the x264-style encoder/decoder and the ten presets
  (:mod:`~repro.codec.encoder`, :mod:`~repro.codec.decoder`,
  :mod:`~repro.codec.options`, :mod:`~repro.codec.presets`, ...);
- :mod:`repro.ffmpeg` — the transcode pipeline (:mod:`~repro.ffmpeg.transcode`);
- :mod:`repro.trace` — execution tracing (the codec -> simulator bridge);
- :mod:`repro.uarch` — the Sniper-style µarch simulator and Table IV configs;
- :mod:`repro.profiling` — VTune/perf-style profiling over the simulator;
- :mod:`repro.optim` — AutoFDO and Graphite compiler-optimization models;
- :mod:`repro.scheduling` — the smart-scheduler case study
  (:mod:`~repro.scheduling.casestudy`, :mod:`~repro.scheduling.task`, ...);
- :mod:`repro.obs` — telemetry: sessions, spans, metrics, SLOs, run
  artifacts;
- :mod:`repro.resilience` — fault injection and retry;
- :mod:`repro.experiments` — one module per paper table/figure, plus the
  sweep engine and result cache;
- :mod:`repro.bench` — the calibrated-cost gate behind ``repro bench``.

This module holds only ``__version__``, which the result-cache key and
``repro --version`` read.

Quickstart::

    from repro import api

    result = api.encode("cricket", preset="medium", crf=23)
    profiled = api.profile("cricket")
    print(profiled.counters.backend_bound)
"""

__version__ = "2.0.0"

__all__ = ["__version__"]

"""Profiling tools: the paper's VTune / Linux-perf equivalents.

- :mod:`repro.profiling.perf` — one-call "perf stat"-style profiling of a
  transcode (encode under a recording tracer, then simulate);
- :mod:`repro.profiling.counters` — the counter set the paper reports
  (MPKI, resource stalls, top-down percentages) as a flat record;
- :mod:`repro.profiling.vtune` — top-down report formatting;
- :mod:`repro.profiling.roofline` — the roofline model the paper uses to
  explain its trends (§IV-A).

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []

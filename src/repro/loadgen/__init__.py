"""Open-loop load generation for the transcoding service.

The package that turns the synchronous :mod:`repro.service` layer into a
sustained-traffic testbed:

- :mod:`repro.loadgen.arrivals` — deterministic, seedable arrival
  processes (Poisson / fixed-interval / diurnal / MMPP) realized as
  byte-identical :class:`~repro.loadgen.arrivals.ArrivalSchedule`
  objects;
- :mod:`repro.loadgen.mixes` — weighted workload mixes over the vbench
  catalog (:data:`~repro.loadgen.mixes.MIXES`), sampled with seeded
  PCG64;
- :mod:`repro.loadgen.driver` — :func:`~repro.loadgen.driver.run_loadtest`,
  which offers a schedule open-loop (or closed-loop, for contrast) to a
  :class:`~repro.service.service.TranscodeService` and reports offered /
  admitted / shed / completed accounting with latency percentiles.

The package sits *on* the service: the driver only decides when requests
arrive and advances the :class:`~repro.service.clock.VirtualClock` to
those instants. The clock itself lives in :mod:`repro.service.clock`
(the service stamps every latency through it); nothing under
:mod:`repro.service` imports this package at module level. Import each
name from the submodule that owns it; the package re-exports nothing.
"""

__all__: list[str] = []

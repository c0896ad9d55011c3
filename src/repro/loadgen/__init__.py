"""Open-loop load generation for the transcoding service.

The package that turns the synchronous :mod:`repro.service` layer into a
sustained-traffic testbed:

- :mod:`repro.loadgen.arrivals` — deterministic, seedable arrival
  processes (Poisson / fixed-interval / diurnal / MMPP) realized as
  byte-identical :class:`ArrivalSchedule` objects;
- :mod:`repro.loadgen.mixes` — weighted workload mixes over the vbench
  catalog (:data:`MIXES`), sampled with seeded PCG64;
- :mod:`repro.loadgen.driver` — :func:`run_loadtest`, which offers a
  schedule open-loop (or closed-loop, for contrast) to a
  :class:`~repro.service.service.TranscodeService` and reports offered /
  admitted / shed / completed accounting with latency percentiles.

The package sits *on* the service: the driver only decides when requests
arrive and advances the :class:`VirtualClock` to those instants. The
clock itself lives in :mod:`repro.service.clock` (the service stamps
every latency through it) and is re-exported here for convenience;
nothing under :mod:`repro.service` imports this package at module level.
"""

from __future__ import annotations

from repro.loadgen.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    ArrivalSchedule,
    DiurnalArrivals,
    FixedIntervalArrivals,
    MmppArrivals,
    PoissonArrivals,
    make_arrivals,
    merge_schedules,
)
from repro.loadgen.driver import (
    LegResult,
    LoadtestReport,
    LoadtestSpec,
    run_loadtest,
)
from repro.loadgen.mixes import MIXES, MixTemplate, WorkloadMix, make_mix
from repro.service.clock import Clock, VirtualClock, WallClock

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "ArrivalSchedule",
    "Clock",
    "DiurnalArrivals",
    "FixedIntervalArrivals",
    "LegResult",
    "LoadtestReport",
    "LoadtestSpec",
    "MIXES",
    "MixTemplate",
    "MmppArrivals",
    "PoissonArrivals",
    "VirtualClock",
    "WallClock",
    "WorkloadMix",
    "make_arrivals",
    "make_mix",
    "merge_schedules",
    "run_loadtest",
]

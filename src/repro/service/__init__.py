"""The long-lived transcoding job service (queue → placement → fleet).

The serving layer the ROADMAP's north star asks for, built from the
paper's §V case study: typed job submissions are admitted through a
bounded queue with backpressure, profiled once on the baseline
configuration, and dispatched onto a heterogeneous fleet of warm
workers — each pinned to one Table IV microarchitecture — by an online
characterization-driven placement policy (with a seeded random control,
so the paper's smart-vs-random margin is reproducible in serving mode).

Pieces:

- :mod:`repro.service.clock` — the wall / virtual clock every latency
  is stamped through (the load generator only advances it);
- :mod:`repro.service.jobs` — the mutable job record around a request;
- :mod:`repro.service.queue` — the ledger: bounded priority queue, the
  only writer of job state, the run's tallies;
- :mod:`repro.service.workers` — the warm, config-pinned worker fleet
  with crash-suspect isolation;
- :mod:`repro.service.placement` — SmartScheduler-style vs. random
  online placement, with cost-aware Pareto objectives (min cost under a
  deadline / min latency under a $/hour budget) over instance-typed
  fleets;
- :mod:`repro.service.service` — the service object: dispatch loop
  (``pump`` / ``step`` / ``run_until_idle``), the one terminal
  transition;
- :mod:`repro.service.report` — :class:`ServiceReport`, its assembly
  off the ledger, and the cost ratios shared with the load generator;
- :mod:`repro.service.fleetcompare` — the heterogeneous-fleet
  comparison driver behind ``repro fleet-compare``.

The service keeps no state between runs: its input is the request
spool, its output ``jobs.json``, and re-running the spool is the
restart.

Import each name from the submodule above that owns it; the package
re-exports nothing, so a caller loads only the pieces it uses. Use
through :func:`repro.api.serve` / ``repro serve`` rather than directly;
the facade adds telemetry artifacts around a run.
"""

__all__: list[str] = []

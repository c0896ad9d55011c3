"""``repro.api``: the unified public facade.

One blessed entry point per workflow, typed records for everything that
crosses the boundary, and a single consolidated :class:`Settings` for
every process-wide knob:

====================  ================================================
workflow              entry point
====================  ================================================
one transcode         :func:`repro.api.encode`
profiled transcode    :func:`repro.api.profile`
paper table/figure    :func:`repro.api.sweep`
batch scheduling      :func:`repro.api.schedule`
job service           :func:`repro.api.serve`
open-loop load test   :func:`repro.api.loadtest`
====================  ================================================

Quickstart::

    from repro import api

    result = api.encode("cricket", preset="medium", crf=23)
    report = api.serve(api.table3_requests(8))
    print(report.render())
"""

import importlib

from repro.api.settings import ENV_VARS, Settings
from repro.api.types import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    QUICK_SIZING,
    JobStatus,
    TranscodeRequest,
    TranscodeResult,
)

#: Lazily re-exported symbols: name -> (module, attribute). Lazy so the
#: typed records stay leaf imports — the service layer imports
#: ``repro.api.types`` while the facade imports the service layer, and
#: eager package imports here would close that cycle.
_LAZY_EXPORTS = {
    "encode": ("repro.api.facade", "encode"),
    "fleet_compare": ("repro.api.facade", "fleet_compare"),
    "FleetCompareReport": ("repro.service.fleetcompare", "FleetCompareReport"),
    "FleetDef": ("repro.service.fleetcompare", "FleetDef"),
    "loadtest": ("repro.api.facade", "loadtest"),
    "LoadtestReport": ("repro.loadgen.driver", "LoadtestReport"),
    "LoadtestSpec": ("repro.loadgen.driver", "LoadtestSpec"),
    "profile": ("repro.api.facade", "profile"),
    "render_experiment": ("repro.api.facade", "render_experiment"),
    "schedule": ("repro.api.facade", "schedule"),
    "serve": ("repro.api.facade", "serve"),
    "sweep": ("repro.api.facade", "sweep"),
    "ServiceConfig": ("repro.service.service", "ServiceConfig"),
    "ServiceReport": ("repro.service.service", "ServiceReport"),
    "table3_requests": ("repro.service.service", "table3_requests"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))

__all__ = [
    "ENV_VARS",
    "FleetCompareReport",
    "FleetDef",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_STATES",
    "JobStatus",
    "LoadtestReport",
    "LoadtestSpec",
    "QUICK_SIZING",
    "ServiceConfig",
    "ServiceReport",
    "Settings",
    "TranscodeRequest",
    "TranscodeResult",
    "encode",
    "fleet_compare",
    "loadtest",
    "profile",
    "render_experiment",
    "schedule",
    "serve",
    "sweep",
    "table3_requests",
]

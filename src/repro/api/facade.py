"""The seven blessed entry points: encode, profile, sweep, schedule,
serve, loadtest, fleet_compare.

One function per workflow, all consuming/producing the typed records in
:mod:`repro.api.types`. The CLI, the experiments, and the service layer
route through these.

- :func:`encode` — one transcode (the Fig. 2 triangle);
- :func:`profile` — one perf-stat-style profiled transcode;
- :func:`sweep` — any paper table/figure by experiment id;
- :func:`schedule` — the batch scheduler case study (Fig. 9);
- :func:`serve` — a synchronous pass of the long-lived job service;
- :func:`loadtest` — an open-loop sustained-traffic run against the
  service on a virtual clock;
- :func:`fleet_compare` — one workload across heterogeneous
  instance-typed fleets, tabulating throughput/$, p99 e2e, and cost per
  completed job (smart vs. the random control).

``sweep``, ``serve``, ``loadtest``, and ``fleet_compare`` accept
``telemetry_dir`` and then export ``run.json`` / ``events.jsonl`` /
``trace.json`` artifacts around the run, exactly like the CLI's
``--telemetry`` flag.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro.api.types import TranscodeRequest, TranscodeResult
from repro.profiling.perf import ProfileResult, profile_transcode
from repro.scheduling.task import TABLE_III_TASKS, TranscodeTask
from repro.video.vbench import load_video

if TYPE_CHECKING:
    from repro.loadgen.driver import LoadtestReport, LoadtestSpec
    from repro.scheduling.casestudy import CaseStudyResult
    from repro.service.service import ServiceConfig, ServiceReport

__all__ = [
    "encode",
    "fleet_compare",
    "loadtest",
    "profile",
    "render_experiment",
    "schedule",
    "serve",
    "sweep",
]


def _as_request(
    request: TranscodeRequest | str, **overrides: object
) -> TranscodeRequest:
    if isinstance(request, TranscodeRequest):
        if overrides:
            raise ValueError(
                "pass either a TranscodeRequest or keyword overrides, not both"
            )
        return request
    return TranscodeRequest(clip=request, **overrides)  # type: ignore[arg-type]


def encode(
    request: TranscodeRequest | str,
    *,
    width: int | None = None,
    height: int | None = None,
    n_frames: int | None = None,
    **overrides: object,
) -> TranscodeResult:
    """Transcode one clip and return the speed/quality/size triangle.

    ``request`` is a :class:`~repro.api.types.TranscodeRequest` or a
    vbench clip name (with ``preset`` / ``crf`` / ``refs`` keyword
    overrides). ``width`` / ``height`` / ``n_frames`` size the proxy
    clip. No simulation runs: ``cycles`` is ``None`` in the result.
    """
    from repro.ffmpeg.transcode import transcode as _transcode

    req = _as_request(request, **overrides)
    video = load_video(req.clip, width=width, height=height, n_frames=n_frames)
    out = _transcode(video, options=req.options())
    return TranscodeResult(
        clip=req.clip,
        preset=req.preset,
        crf=req.crf,
        refs=req.refs,
        psnr_db=out.quality_psnr_db,
        bitrate_kbps=out.size_bitrate_kbps,
        encode_seconds=out.encode.encode_seconds,
    )


def profile(
    request: TranscodeRequest | str,
    *,
    width: int | None = None,
    height: int | None = None,
    n_frames: int | None = None,
    config=None,
    data_capacity_scale: float | None = None,
    **overrides: object,
) -> ProfileResult:
    """Profile one transcode perf-stat style (encode under a tracer,
    simulate, return the paper's counter set). Accepts the same request
    forms as :func:`encode`; ``config`` picks the simulated µarch
    (default: the Table IV baseline)."""
    req = _as_request(request, **overrides)
    video = load_video(req.clip, width=width, height=height, n_frames=n_frames)
    return profile_transcode(
        video,
        req.options(),
        config=config,
        data_capacity_scale=data_capacity_scale,
    )


@contextmanager
def _telemetry_run(
    experiment: str,
    scale: str,
    telemetry_dir: str | Path | None,
    slo_spec: str | Path | None = None,
):
    """Run the body under a telemetry session and export it afterwards.

    Sessions do not nest, so an active one (tests often call the facade
    inside their own) is reused. Yields a record with the session as
    ``tel`` and the loaded ``slo`` spec; the body may set ``status`` /
    ``failures`` before raising (a sweep's ``"partial"``), any other
    exception marks the run ``"failed"``. With ``telemetry_dir`` the
    artifacts — SLO verdict included — are written even when the body
    raised.
    """
    from repro.obs import session as obs
    from repro.obs.export import export_session
    from repro.obs.slo import evaluate_slo, load_slo_spec

    run = SimpleNamespace(
        status="ok",
        failures=None,
        slo=load_slo_spec(slo_spec) if slo_spec is not None else None,
    )
    active = obs.current()
    session_cm = nullcontext(active) if active else obs.telemetry_session()
    t0 = time.perf_counter()
    with session_cm as run.tel:
        try:
            yield run
        except Exception:
            if run.status == "ok":
                run.status = "failed"
            raise
        finally:
            if telemetry_dir is not None:
                verdict = (
                    evaluate_slo(run.slo, run.tel.metrics.as_dict())
                    if run.slo is not None else None
                )
                paths = export_session(
                    run.tel,
                    telemetry_dir,
                    experiment=experiment,
                    scale=scale,
                    wall_seconds=time.perf_counter() - t0,
                    status=run.status,
                    failures=run.failures,
                    slo=verdict.to_payload() if verdict else None,
                )
                print(f"[{experiment}] telemetry: {paths['run']}",
                      file=sys.stderr)


# ----------------------------------------------------------------------
# Experiments.
# ----------------------------------------------------------------------

#: Figure id -> its ``repro.experiments`` module (``run(scale).render()``).
_FIGURE_MODULES = {
    "fig3": "fig3_heatmaps",
    "fig4": "fig4_projections",
    "fig5": "fig5_inefficiency",
    "fig6": "fig6_presets",
    "fig7": "fig7_videos",
    "fig8": "fig8_compiler",
    "fig9": "fig9_scheduler",
    "roofline": "roofline_sweep",
}


def render_experiment(exp_id: str, scale) -> str:
    """Run one registered experiment and return its rendered text.

    Imports are local so cheap experiments do not pay for numpy-heavy
    modules they do not use; ``KeyError`` for unknown ids.
    """
    if exp_id in ("tab1", "tab2", "tab3", "tab4"):
        from repro.experiments import tables

        if exp_id == "tab1":  # the only table measured at a scale
            return tables.tab1(scale).render()
        return getattr(tables, exp_id)()
    module = importlib.import_module(
        f"repro.experiments.{_FIGURE_MODULES[exp_id]}"
    )
    return module.run(scale).render()


def sweep(
    experiment: str,
    scale="quick",
    *,
    telemetry_dir: str | Path | None = None,
) -> str:
    """Run one paper experiment end to end and return its rendered text.

    ``scale`` is a name (``quick`` / ``medium`` / ``full``) or an
    :class:`~repro.experiments.runner.ExperimentScale`. With
    ``telemetry_dir`` the run executes under a telemetry session and
    exports ``run.json`` / ``events.jsonl`` / ``trace.json`` there.

    A sweep whose cells exhaust their retry budget raises
    :class:`~repro.experiments.runner.SweepFailure` after recording a
    ``status: "partial"`` artifact — the caller decides how to degrade.
    """
    from repro.experiments.runner import SCALES, SweepFailure
    from repro.obs.session import span

    resolved = SCALES[scale] if isinstance(scale, str) else scale
    if telemetry_dir is None:
        return render_experiment(experiment, resolved)

    with _telemetry_run(experiment, resolved.name, telemetry_dir) as run:
        run.tel.meta["argv_experiment"] = experiment
        try:
            with span("experiment", id=experiment, scale=resolved.name):
                return render_experiment(experiment, resolved)
        except SweepFailure as exc:
            run.status = "partial"
            run.failures = exc.failure_payloads()
            raise


def schedule(
    tasks: tuple[TranscodeTask, ...] = TABLE_III_TASKS,
    *,
    width: int = 112,
    height: int = 64,
    n_frames: int = 10,
    data_capacity_scale: float = 48.0,
) -> CaseStudyResult:
    """Run the batch scheduler case study (paper §V / Fig. 9): simulate
    every task on the baseline and all Table IV variants, serially in
    this process, then evaluate the random / smart / best schedulers."""
    from repro.scheduling.casestudy import run_case_study

    return run_case_study(
        tasks,
        width=width,
        height=height,
        n_frames=n_frames,
        data_capacity_scale=data_capacity_scale,
    )


def serve(
    requests: list[TranscodeRequest],
    config: ServiceConfig | None = None,
    *,
    control: bool = True,
    resume: bool = False,
    telemetry_dir: str | Path | None = None,
    slo_spec: str | Path | None = None,
    metrics_out: str | Path | None = None,
    metrics_interval: float = 30.0,
) -> ServiceReport:
    """Run one synchronous pass of the transcoding job service.

    Submits ``requests`` to a
    :class:`~repro.service.service.TranscodeService` built from
    ``config``, drains it, and (by default) re-runs the same
    submissions under the random-placement control so the report carries
    the serving-mode smart-vs-random margin. With ``telemetry_dir`` the
    pass runs under a telemetry session and exports run artifacts with
    ``experiment: "serve"``.

    Observability knobs (off when ``None``):

    - ``slo_spec`` — a JSON SLO spec (see :mod:`repro.obs.slo`); the
      evaluated report lands in ``run.json``'s ``slo`` section (with
      ``telemetry_dir``) and in each metrics snapshot.
    - ``metrics_out`` — a directory that receives live ``metrics.prom``
      / ``slo.json`` snapshots every ``metrics_interval`` seconds while
      the service drains (plus a final flush).
    """
    from repro.service.service import ServiceConfig, run_service

    if telemetry_dir is None and slo_spec is None and metrics_out is None:
        return run_service(
            requests, config, control=control, resume=resume
        )

    from repro.obs.expose import MetricsSnapshotter

    policy = (config or ServiceConfig()).policy
    with _telemetry_run("serve", policy, telemetry_dir, slo_spec) as run:
        snapshots = (
            MetricsSnapshotter(
                run.tel.metrics,
                metrics_out,
                interval_s=metrics_interval,
                slo_spec=run.slo,
            )
            if metrics_out is not None
            else nullcontext()
        )
        with snapshots:
            return run_service(
                requests, config, control=control, resume=resume
            )


def loadtest(
    spec: LoadtestSpec | None = None,
    config: ServiceConfig | None = None,
    *,
    telemetry_dir: str | Path | None = None,
    slo_spec: str | Path | None = None,
) -> LoadtestReport:
    """Run an open-loop sustained-traffic load test against the service.

    ``spec`` (default: the :class:`LoadtestSpec` defaults) names the
    arrival process, offered rate(s), duration, and workload mix. Each
    rate runs as one leg on a fresh
    :class:`~repro.service.service.TranscodeService` over a virtual
    clock, so even multi-minute scenarios finish in wall milliseconds —
    see :func:`repro.loadgen.driver.run_loadtest` for the mechanics.

    With ``telemetry_dir`` the run exports artifacts under
    ``experiment: "loadtest"``; the offered/admitted/shed accounting and
    per-leg latency percentiles land in ``run.json``'s
    ``meta.loadtest`` section, and an ``slo_spec`` adds the evaluated
    verdict to the ``slo`` section, where ``repro slo check`` gates on it.
    """
    from repro.loadgen.driver import LoadtestSpec, run_loadtest

    spec = spec or LoadtestSpec()
    if telemetry_dir is None and slo_spec is None:
        return run_loadtest(spec, config)

    with _telemetry_run("loadtest", spec.arrivals, telemetry_dir, slo_spec):
        return run_loadtest(spec, config)


def fleet_compare(
    fleets=None,
    *,
    objective: str = "min-cost",
    mix: str = "table3",
    count: int = 16,
    seed: int = 0,
    deadline_s: float | None = None,
    budget_usd: float | None = None,
    width: int = 112,
    height: int = 64,
    n_frames: int = 10,
    telemetry_dir: str | Path | None = None,
):
    """Compare heterogeneous fleets on one workload, smart vs. random.

    Runs :func:`repro.service.fleetcompare.run_fleet_compare` — the
    serving-mode analogue of the cited papers' per-instance-type cost
    tables — over ``fleets`` (default: the shipped
    :data:`~repro.service.fleetcompare.EXAMPLE_FLEETS`), under the
    chosen Pareto ``objective`` (``min-cost`` under ``deadline_s``, or
    ``min-latency`` under a per-core ``budget_usd`` $/hour). With
    ``telemetry_dir`` the run exports artifacts under ``experiment:
    "fleet-compare"`` and the per-fleet table lands in ``run.json``'s
    ``meta.fleet_compare`` section, which ``repro report`` renders and
    ``repro report --diff`` compares across runs.
    """
    from repro.service.fleetcompare import run_fleet_compare

    kwargs = dict(
        objective=objective, mix=mix, count=count, seed=seed,
        deadline_s=deadline_s, budget_usd=budget_usd,
        width=width, height=height, n_frames=n_frames,
    )
    if telemetry_dir is None:
        return run_fleet_compare(fleets, **kwargs)

    with _telemetry_run("fleet-compare", objective, telemetry_dir):
        return run_fleet_compare(fleets, **kwargs)

"""``repro`` / ``python -m repro``: run any paper experiment by id.

Examples::

    repro tab1                        # Table I with measured entropies
    repro fig3 --scale quick
    repro fig3 --jobs 4               # shard the sweep across 4 workers
    repro fig3 --cache-dir .cache/    # persist results; repeats are free,
                                      # and re-running a killed run resumes it
    repro fig3 --telemetry out/       # also write out/run.json etc.
    repro fig3 --fault-plan 'worker.task,at=3,kill'   # chaos testing
    repro all                         # every table and figure
    repro list                        # enumerate experiment ids
    repro cache stats                 # inspect the persistent result cache
    repro cache clear --cache-dir .cache/
    repro report out/run.json         # render a telemetry artifact
    repro report --diff a/run.json b/run.json
    repro report out/run.json --timeline 3      # one job's flame graph
    repro slo check out/run.json --spec examples/slo/serve.json
    repro bench                       # calibrated costs: kernels + fig3 encode
    repro bench --compare BENCH_baseline.json   # CI regression gate
    repro submit cricket --crf 30 --spool .repro/spool.jsonl
    repro serve --spool .repro/spool.jsonl --telemetry out-serve/
    repro serve --mix table3 --count 8          # the paper's §V task mix
    repro loadtest --arrivals poisson --rate 4,16,40 --duration 30 --quick
    repro loadtest --arrivals diurnal --rate 12 --amplitude 0.9 \
        --telemetry out-load/ --slo examples/slo/loadtest.json
    repro serve --mix table3 --fleet 'c6g.xlarge,a1.xlarge' \
        --objective min-cost --deadline-s 600
    repro fleet-compare --quick             # x86 vs Arm vs mixed, smart vs random
    repro fleet-compare --objective min-latency --budget-usd 0.05 \
        --fleet 'cheap=a1.xlarge:2' --fleet 'fast=c5.xlarge,c6g.xlarge'

Every ``Settings``-backed flag is declared once, from its row of
:data:`repro.api.settings.FIELD_TABLE` (:func:`add_settings_flags`), and
falls back to the row's ``$REPRO_*`` variable with one documented
precedence order — **CLI flag > env var > default** — implemented by
:meth:`repro.api.Settings.resolve`. Subcommands read only the resolved
``Settings``; none of them, and nothing they call, reads a variable
itself. The full knob catalogue lives in ``docs/CONFIGURATION.md``.

A cached experiment (tab1, fig3-fig9) whose units exhaust their retry
budget does not abort: every computable unit completes and is stored,
the failures are summarized on stderr (and in ``run.json`` as ``status:
"partial"`` with a ``failures`` list under ``--telemetry``), and the
process exits with code 3. The result cache is the only durable store of
a finished unit: re-running the same command with the same
``--cache-dir`` recomputes only what is missing. ``repro serve`` keeps no
state between runs either: re-running it over the same spool is the
restart.

``repro serve`` runs the long-lived transcoding job service over a
request spool (``repro submit`` appends to it) or the built-in Table III
mix, places jobs with the smart (or random-control) policy, and exits 1
if any job finished ``failed``. ``repro loadtest`` drives the same
service with sustained open-loop traffic — a deterministic, seeded
arrival schedule offered on a virtual clock — and prints the
offered-rate vs. achieved-throughput/latency table (shed load included;
exit 1 if any job finished ``failed``). With ``--slo SPEC.json`` the run is
evaluated against a declarative SLO spec (the verdict lands in
``run.json``); with ``--metrics-out DIR`` live Prometheus-text metric
snapshots are written while the service drains. Fleets mix Table IV
config workers with priced cloud instance types
(``c5.xlarge``/``c6g.xlarge``/...), and ``--objective min-cost
--deadline-s N`` / ``--objective min-latency --budget-usd R`` switch
smart placement onto its cost-aware Pareto objectives. ``repro
fleet-compare`` runs one workload across several named fleets — smart
placement against the seeded random control — and tabulates throughput
per provisioned dollar, p99 end-to-end latency, and cost per completed
job (exit 1 if any fleet shed or failed jobs). ``repro slo check
RUN.json --spec SPEC.json`` re-evaluates an exported artifact and exits
2 on breach (the CI gate). ``repro bench`` measures the codec kernels'
and the fig3 encode slice's cost in units of a calibration kernel timed
beside them, and nothing else: ``--compare BASELINE.json`` exits 4 on a
regression against a clean baseline artifact (1, before measuring, if the
baseline is missing, dirty, not ``repro-bench/v3`` or holds a cost that
is not a finite positive number). No ``$REPRO_*`` variable changes what
it runs. See ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import repro
from repro._util import atomic_write_text
from repro.api.settings import FIELD_TABLE, Settings
from repro.api.types import QUICK_SIZING
from repro.experiments.runner import SCALES

__all__ = [
    "EXPERIMENT_DESCRIPTIONS",
    "EXPERIMENT_IDS",
    "add_settings_flags",
    "main",
]

#: Experiment registry: id -> one-line description (rendered by
#: ``repro list``).
EXPERIMENT_DESCRIPTIONS: dict[str, str] = {
    "tab1": "Table I — vbench video catalog with measured entropies",
    "tab2": "Table II — the ten x264 presets' option values",
    "tab3": "Table III — scheduler case-study transcoding tasks",
    "tab4": "Table IV — simulated microarchitecture configurations",
    "fig3": "Figure 3 — FE/BE/BS-bound heatmaps over the crf x refs grid",
    "fig4": "Figure 4 — transcode-time projections across the grid",
    "fig5": "Figure 5 — cycle-inefficiency (MPKI/stall) heatmaps",
    "fig6": "Figure 6 — per-preset microarchitectural characterization",
    "fig7": "Figure 7 — per-video microarchitectural characterization",
    "fig8": "Figure 8 — AutoFDO/Graphite compiler-optimization study",
    "fig9": "Figure 9 — random/smart/best scheduler case study",
    "roofline": "Roofline — operational-intensity sweep (extension)",
}

EXPERIMENT_IDS = tuple(EXPERIMENT_DESCRIPTIONS)

#: Default spool file used by `repro submit` / `repro serve --spool`.
DEFAULT_SPOOL = Path(".repro") / "spool.jsonl"


def add_settings_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    """Declare the flag of each named ``Settings`` field from its
    :data:`~repro.api.settings.FIELD_TABLE` row — spelling, metavar,
    type, choices read off the live registry, and help with the
    "(default: $ENV, else <field default>)" tail — and remember the
    fields so :func:`_resolve_settings` resolves exactly those flags."""
    for field in fields:
        knob = FIELD_TABLE[field]
        help_text = knob.help
        if knob.env:
            default = Settings.__dataclass_fields__[field].default
            if isinstance(default, float):
                default = (default,)
            if isinstance(default, tuple):
                default = ",".join(f"{value:g}" for value in default)
            help_text += f" (default: ${knob.env}" + (
                "" if default is None or isinstance(default, bool)
                else f", else {default}"
            ) + ")"
        if knob.negated:  # a boolean knob: a switch
            parser.add_argument(knob.flag, action="store_true", help=help_text)
            continue
        choices = None
        if knob.choices is not None:
            module, attribute = knob.choices.split(":")
            choices = tuple(getattr(importlib.import_module(module), attribute))
        parser.add_argument(knob.flag, metavar=knob.metavar, type=knob.argtype,
                            choices=choices, default=None, help=help_text)
    parser.set_defaults(settings_fields=fields)


def _resolve_settings(parser: argparse.ArgumentParser, args) -> Settings:
    """Resolve the flags :func:`add_settings_flags` declared (CLI flag >
    env var > default); an invalid value is a usage error."""
    flags = {}
    for field in args.settings_fields:
        knob = FIELD_TABLE[field]
        value = getattr(args, knob.dest)
        # An absent store_true flag parses as False: not given.
        flags[knob.dest if knob.negated else field] = (
            None if value is False else value
        )
    try:
        return Settings.resolve(**flags)
    except ValueError as exc:
        parser.error(str(exc))


def _add_service_flags(
    parser: argparse.ArgumentParser, *, placement: bool = True
) -> None:
    """The per-run flags serve / loadtest / fleet-compare share
    (fleet-compare runs both placement policies itself, so it takes
    neither ``--policy`` nor ``--queue-capacity``)."""
    from repro.service.placement import PLACEMENT_POLICIES

    if placement:
        parser.add_argument("--policy", choices=PLACEMENT_POLICIES,
                            default="smart",
                            help="placement policy (default: smart)")
        parser.add_argument("--queue-capacity", type=int, default=64,
                            help="admission queue bound; the knob that "
                                 "decides when overload sheds (default: 64)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job completion deadline constraining the "
                             "cost-aware objectives (virtual seconds)")
    parser.add_argument("--budget-usd", type=float, default=None,
                        metavar="RATE",
                        help="per-worker $/hour ceiling constraining the "
                             "cost-aware objectives")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for arrivals, mix sampling and the "
                             "random placement policy (default: 0)")
    parser.add_argument("--quick", action="store_true",
                        help="small proxy clips ({width}x{height}, "
                             "{n_frames} frames) for smokes and CI"
                             .format(**QUICK_SIZING))
    parser.add_argument("--telemetry", metavar="OUT_DIR", default=None,
                        help="write run.json/events.jsonl/trace.json (and "
                             "the command's own section under meta) into "
                             "OUT_DIR")


def _service_config(args, settings: Settings, **extra: object):
    """The ``ServiceConfig`` the shared service flags and the resolved
    ``settings`` (fleet, objective) describe."""
    from repro.api import ServiceConfig

    return ServiceConfig.from_settings(
        settings,
        quick=args.quick,
        policy=args.policy,
        deadline_s=args.deadline_s,
        budget_usd=args.budget_usd,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        **extra,
    )


def _cache_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the persistent sweep result cache.",
    )
    parser.add_argument("action", choices=("stats", "clear"))
    add_settings_flags(parser, "cache_dir")
    args = parser.parse_args(argv)

    from repro.experiments.cache import ResultCache, default_cache_dir

    settings = _resolve_settings(parser, args)
    cache = ResultCache(settings.cache_dir or default_cache_dir())
    if args.action == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
    return 0


def _bench_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Measure the codec kernels and the encode stage of a "
                    "fig3 slice in units of a calibration kernel timed "
                    "beside them.",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE.json",
        default=None,
        help="compare calibrated costs against a clean repro-bench/v3 "
             "baseline artifact (checked before measuring); exit 4 when a "
             "cost rose >25%% (encode slice) or >50%% (a kernel) above it",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="artifact path (default: BENCH_<rev>.json in the cwd)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        metavar="N",
        help="kernel repetitions, at least 3; best-of-N is reported "
             "(the fig3 slice keeps its own fixed repetitions)",
    )
    args = parser.parse_args(argv)
    if args.reps < 3:
        parser.error("--reps must be at least 3: single-shot kernel "
                     "timings are too noisy for a cost gate")

    from repro.bench import harness, report as bench_report

    # The baseline is checked before anything is measured: a gate that
    # cannot compare must say so in a second, not after a minute's run.
    baseline = None
    if args.compare is not None:
        try:
            baseline = bench_report.load_bench(args.compare)
            if baseline.get("dirty"):
                raise ValueError(
                    f"{args.compare}: measured on a dirty tree "
                    f"({baseline.get('rev')}+dirty), so it names no commit; "
                    "re-measure the baseline on a clean checkout"
                )
        except (OSError, ValueError) as exc:
            print(f"repro bench: {exc}", file=sys.stderr)
            return 1

    payload = harness.run_bench(reps=args.reps)
    path = bench_report.write_bench(payload, args.output)
    print(bench_report.render_bench(payload))
    print(f"\nwrote {path}")

    if baseline is None:
        return 0
    report, regressions = bench_report.compare_bench(payload, baseline)
    print()
    print(report)
    return 4 if regressions else 0


def _list_main() -> int:
    width = max(len(i) for i in EXPERIMENT_IDS)
    for exp_id in EXPERIMENT_IDS:
        print(f"{exp_id.ljust(width)}  {EXPERIMENT_DESCRIPTIONS[exp_id]}")
    return 0


def _report_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render or diff telemetry run.json artifacts.",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        metavar="run.json",
        help="one artifact to render, or two with --diff",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="compare two artifacts metric by metric",
    )
    parser.add_argument(
        "--timeline",
        metavar="JOB_ID",
        default=None,
        help="render one service job's span tree from the events.jsonl "
             "next to the artifact (flame graph in text form)",
    )
    args = parser.parse_args(argv)

    from repro.obs.export import (
        diff_runs,
        load_run,
        read_events_jsonl,
        render_run,
        render_timeline,
    )

    try:
        if args.diff:
            if len(args.artifacts) != 2:
                parser.error("--diff needs exactly two run.json paths")
            print(diff_runs(load_run(args.artifacts[0]),
                            load_run(args.artifacts[1])))
        elif args.timeline is not None:
            if len(args.artifacts) != 1:
                parser.error("--timeline needs exactly one run.json path")
            artifact = Path(args.artifacts[0])
            events = (artifact if artifact.name.endswith(".jsonl")
                      else artifact.parent / "events.jsonl")
            if not events.exists():
                print(f"repro report: no event stream at {events}",
                      file=sys.stderr)
                return 1
            print(render_timeline(read_events_jsonl(events), args.timeline))
        else:
            for i, path in enumerate(args.artifacts):
                if i:
                    print()
                print(render_run(load_run(path)))
    except (OSError, ValueError) as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 1
    return 0


def _slo_main(argv: list[str]) -> int:
    """``repro slo check``: evaluate a run artifact against an SLO spec."""
    parser = argparse.ArgumentParser(
        prog="repro slo",
        description="Evaluate telemetry artifacts against declarative "
                    "service-level objectives.",
    )
    parser.add_argument("action", choices=("check",))
    parser.add_argument("artifact", metavar="run.json",
                        help="telemetry artifact to evaluate")
    parser.add_argument("--spec", metavar="SPEC.json", default=None,
                        help="SLO spec file (default: $REPRO_SLO_SPEC)")
    args = parser.parse_args(argv)

    from repro.obs.export import load_run
    from repro.obs.slo import evaluate_slo, load_slo_spec

    spec_path = args.spec or Settings.from_env().slo_spec
    if spec_path is None:
        parser.error("no SLO spec: pass --spec or set REPRO_SLO_SPEC")
    try:
        spec = load_slo_spec(spec_path)
        run = load_run(args.artifact)
    except (OSError, ValueError) as exc:
        print(f"repro slo: {exc}", file=sys.stderr)
        return 1
    report = evaluate_slo(spec, run.get("metrics") or {})
    print(report.render())
    return 0 if report.ok else 2


def _submit_main(argv: list[str]) -> int:
    """``repro submit``: append one typed request to the spool file."""
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Queue one transcoding job for `repro serve`.",
    )
    parser.add_argument("clip", help="vbench clip short name, e.g. cricket")
    parser.add_argument("--preset", default="medium",
                        help="x264-style preset name (default: medium)")
    parser.add_argument("--crf", type=int, default=23,
                        help="rate factor in [0, 51] (default: 23)")
    parser.add_argument("--refs", type=int, default=None,
                        help="reference frames (default: the preset's own)")
    parser.add_argument("--priority", type=int, default=0,
                        help="dispatch priority; higher runs first")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="soft deadline carried into status artifacts")
    parser.add_argument("--spool", metavar="PATH", default=None,
                        help=f"spool file (default: {DEFAULT_SPOOL})")
    args = parser.parse_args(argv)

    from repro.api import TranscodeRequest

    try:
        request = TranscodeRequest(
            clip=args.clip, preset=args.preset, crf=args.crf,
            refs=args.refs, priority=args.priority,
            deadline_ms=args.deadline_ms,
        )
    except ValueError as exc:
        parser.error(str(exc))
    spool = Path(args.spool) if args.spool else DEFAULT_SPOOL
    spool.parent.mkdir(parents=True, exist_ok=True)
    with open(spool, "a", encoding="utf-8") as handle:
        json.dump(request.to_payload(), handle)
        handle.write("\n")
    print(f"queued {request.clip} preset={request.preset} "
          f"crf={request.crf} -> {spool}")
    return 0


def _read_spool(spool: Path):
    """Parse the spool file into requests (malformed lines are fatal)."""
    from repro.api import TranscodeRequest

    requests = []
    with open(spool, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                requests.append(
                    TranscodeRequest.from_payload(json.loads(line))
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{spool}:{lineno}: bad spool entry: {exc}")
    return requests


def _serve_main(argv: list[str]) -> int:
    """``repro serve``: one synchronous pass of the job service."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the transcoding job service over queued "
                    "submissions (or the paper's Table III mix).",
    )
    parser.add_argument("--spool", metavar="PATH", default=None,
                        help=f"consume requests from this spool file "
                             f"(default: {DEFAULT_SPOOL} if it exists)")
    parser.add_argument("--mix", choices=("table3",), default=None,
                        help="use a built-in request mix instead of a spool")
    parser.add_argument("--count", type=int, default=8,
                        help="number of jobs when using --mix (default: 8)")
    parser.add_argument("--no-control", action="store_true",
                        help="skip the random-placement control pass")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="where to write jobs.json (default: the "
                             "--telemetry directory, else nowhere)")
    _add_service_flags(parser)
    add_settings_flags(
        parser, "fleet", "objective", "fault_plan", "slo_spec", "metrics_out",
    )
    args = parser.parse_args(argv)

    from repro.api import serve, table3_requests

    settings = _resolve_settings(parser, args).apply()

    if args.mix is not None:
        requests = table3_requests(args.count)
    else:
        spool = Path(args.spool) if args.spool else DEFAULT_SPOOL
        if not spool.exists():
            parser.error(
                f"no spool file at {spool}; `repro submit` jobs first or "
                "pass --mix table3"
            )
        try:
            requests = _read_spool(spool)
        except ValueError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 1
        if not requests:
            print(f"repro serve: spool {spool} is empty", file=sys.stderr)
            return 1

    try:
        config = _service_config(args, settings)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        report = serve(
            requests,
            config,
            control=not args.no_control,
            telemetry_dir=args.telemetry,
            slo_spec=settings.slo_spec,
            metrics_out=settings.metrics_out,
        )
    except (OSError, ValueError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 1
    print(report.render())

    out_dir = args.out or args.telemetry
    if out_dir is not None:
        jobs_path = atomic_write_text(
            Path(out_dir) / "jobs.json",
            json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n",
        )
        print(f"[serve] status artifact: {jobs_path}", file=sys.stderr)
    return 1 if report.failed else 0


def _loadtest_main(argv: list[str]) -> int:
    """``repro loadtest``: sustained traffic against the job service."""
    parser = argparse.ArgumentParser(
        prog="repro loadtest",
        description="Drive the transcoding job service with an open-loop "
                    "arrival schedule on a virtual clock (sustained-"
                    "traffic scenarios resolve in wall milliseconds).",
    )
    loop = parser.add_mutually_exclusive_group()
    loop.add_argument("--open-loop", dest="open_loop", action="store_true",
                      default=True,
                      help="offer every arrival on schedule; full queues "
                           "shed load (the default)")
    loop.add_argument("--closed-loop", dest="open_loop",
                      action="store_false",
                      help="hold admissions until the queue has room "
                           "(nothing sheds; hides overload)")
    parser.add_argument("--amplitude", type=float, default=0.5,
                        help="diurnal swing in [0, 1) (default: 0.5)")
    parser.add_argument("--period", type=float, default=60.0,
                        metavar="SECONDS",
                        help="diurnal period (default: 60)")
    parser.add_argument("--burst", type=float, default=8.0,
                        help="mmpp burst-to-quiet rate ratio (default: 8)")
    parser.add_argument("--sojourn", type=float, default=5.0,
                        metavar="SECONDS",
                        help="mmpp mean state sojourn (default: 5)")
    parser.add_argument("--clock-hz", type=float, default=None,
                        metavar="HZ",
                        help="virtual core frequency for charging encode "
                             "cycles (default: 1e6)")
    _add_service_flags(parser)
    add_settings_flags(
        parser, "loadtest_arrivals", "loadtest_rate", "loadtest_duration",
        "loadtest_mix", "fleet", "objective", "fault_plan", "slo_spec",
    )
    args = parser.parse_args(argv)

    from repro.api import LoadtestSpec, loadtest

    settings = _resolve_settings(parser, args).apply()

    extras: dict[str, float] = {}
    if settings.loadtest_arrivals == "diurnal":
        extras = {"amplitude": args.amplitude, "period_s": args.period}
    elif settings.loadtest_arrivals == "mmpp":
        extras = {"burst": args.burst, "sojourn_s": args.sojourn}
    clock = {} if args.clock_hz is None else {"clock_hz": args.clock_hz}
    try:
        spec = LoadtestSpec(
            arrivals=settings.loadtest_arrivals,
            rates=settings.loadtest_rate,
            duration_s=settings.loadtest_duration,
            mix=settings.loadtest_mix,
            seed=args.seed,
            open_loop=args.open_loop,
            arrival_extras=extras,
        )
        config = _service_config(args, settings, **clock)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        report = loadtest(
            spec,
            config,
            telemetry_dir=args.telemetry,
            slo_spec=settings.slo_spec,
        )
    except (OSError, ValueError) as exc:
        print(f"repro loadtest: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 1 if any(leg.failed for leg in report.legs) else 0


def _fleet_compare_main(argv: list[str]) -> int:
    """``repro fleet-compare``: one workload across heterogeneous fleets."""
    parser = argparse.ArgumentParser(
        prog="repro fleet-compare",
        description="Run one workload across several fleet definitions "
                    "(smart cost-aware placement vs. the seeded random "
                    "control) and tabulate throughput per provisioned "
                    "dollar, p99 end-to-end latency, and cost per "
                    "completed job.",
    )
    parser.add_argument("--fleet", metavar="NAME=SPEC", action="append",
                        default=None,
                        help="add one fleet to the matrix, e.g. "
                             "'arm=c6g.xlarge,a1.xlarge'; repeatable "
                             "(default: the shipped x86/arm/mixed/table4 "
                             "matrix)")
    parser.add_argument("--mix", default="table3",
                        help="workload: 'table3' or a loadgen mix name "
                             "(default: table3)")
    parser.add_argument("--count", type=int, default=None,
                        help="jobs per fleet (default: 16, or 8 with "
                             "--quick)")
    _add_service_flags(parser, placement=False)
    add_settings_flags(parser, "objective")
    args = parser.parse_args(argv)

    from repro.api import fleet_compare
    from repro.service.fleetcompare import FleetDef

    settings = _resolve_settings(parser, args).apply()

    fleets = None
    if args.fleet:
        defs = []
        for clause in args.fleet:
            name, sep, spec = clause.partition("=")
            if not sep or not name.strip() or not spec.strip():
                parser.error(
                    f"bad --fleet {clause!r}: expected NAME=SPEC, e.g. "
                    "'arm=c6g.xlarge,a1.xlarge'"
                )
            try:
                defs.append(FleetDef(name=name.strip(), spec=spec.strip()))
            except ValueError as exc:
                parser.error(f"bad --fleet {clause!r}: {exc}")
        fleets = tuple(defs)

    count = args.count if args.count is not None else (8 if args.quick else 16)
    # A plain-throughput objective gives the cost comparison nothing to
    # optimize, so it never applies implicitly: an explicit --objective
    # wins, then a cost-aware settings objective, then min-cost.
    objective = args.objective or (
        "min-cost" if settings.objective == "throughput" else settings.objective
    )
    try:
        report = fleet_compare(
            fleets,
            objective=objective,
            mix=args.mix,
            count=count,
            seed=args.seed,
            deadline_s=args.deadline_s,
            budget_usd=args.budget_usd,
            telemetry_dir=args.telemetry,
            **(QUICK_SIZING if args.quick else {}),
        )
    except (OSError, ValueError) as exc:
        print(f"repro fleet-compare: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 1 if any(r.failed for r in report.results) else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # `list`, `report`, `cache`, `bench`, `serve`, `loadtest`, and
    # `submit` are subcommands with their own options; the default
    # command (run an experiment) keeps its historical flat form.
    if argv[:1] == ["list"]:
        return _list_main()
    if argv[:1] == ["report"]:
        return _report_main(argv[1:])
    if argv[:1] == ["cache"]:
        return _cache_main(argv[1:])
    if argv[:1] == ["bench"]:
        return _bench_main(argv[1:])
    if argv[:1] == ["serve"]:
        return _serve_main(argv[1:])
    if argv[:1] == ["loadtest"]:
        return _loadtest_main(argv[1:])
    if argv[:1] == ["fleet-compare"]:
        return _fleet_compare_main(argv[1:])
    if argv[:1] == ["submit"]:
        return _submit_main(argv[1:])
    if argv[:1] == ["slo"]:
        return _slo_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
        epilog="Subcommands: `repro list` enumerates experiment ids; "
               "`repro report <run.json> [--diff]` renders/diffs "
               "telemetry artifacts; `repro cache {stats,clear}` "
               "inspects/clears the persistent result cache; "
               "`repro bench [--compare BASELINE.json]` measures the "
               "calibrated cost of the codec kernels and the fig3 encode "
               "slice (exit 4 on a regression); "
               "`repro submit CLIP` "
               "queues a job and `repro serve` runs the transcoding job "
               "service over the queue; `repro loadtest` drives the "
               "service with sustained open-loop traffic on a virtual "
               "clock; `repro fleet-compare` tabulates throughput/$ and "
               "cost per job across heterogeneous fleets; "
               "`repro slo check RUN.json --spec SPEC.json` gates "
               "an exported run on its SLOs (exit 2 on breach).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENT_IDS + ("all",),
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--scale",
        default="quick",
        choices=sorted(SCALES),
        help="proxy sizing: quick (seconds-minutes), medium, full (hours)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="OUT_DIR",
        default=None,
        help="write run.json / events.jsonl / trace.json telemetry "
             "artifacts into OUT_DIR (per-experiment subdirs under `all`)",
    )
    add_settings_flags(
        parser, "jobs", "cache_dir", "cache_enabled", "fault_plan",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise experiment failures with the full traceback",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    out_root = Path(args.telemetry) if args.telemetry else None

    from repro.api import sweep
    from repro.experiments.runner import SweepFailure

    # Everything process-wide goes through one resolved Settings:
    # CLI flag > env var > default.
    settings = _resolve_settings(parser, args).apply()

    ids = list(EXPERIMENT_IDS) if args.experiment == "all" else [args.experiment]
    succeeded: list[str] = []
    for exp_id in ids:
        out_dir = None
        if out_root is not None:
            out_dir = out_root / exp_id if len(ids) > 1 else out_root
        t0 = time.perf_counter()
        try:
            output = sweep(exp_id, scale, telemetry_dir=out_dir)
        except SweepFailure as exc:
            # Every computable unit completed and was stored before this
            # raised; report the stragglers and exit partial (code 3).
            print(f"[{exp_id}] PARTIAL: {exc}", file=sys.stderr)
            for failure in exc.failures:
                print(
                    f"[{exp_id}]   failed cell {failure.describe()}: "
                    f"{failure.error}: {failure.message} "
                    f"(after {failure.attempts} attempts)",
                    file=sys.stderr,
                )
            if settings.cache_enabled and settings.cache_dir is not None:
                hint = (
                    "completed cells are in the result cache at "
                    f"{settings.cache_dir}; re-run the same command to "
                    "retry only the failed ones"
                )
            else:
                hint = (
                    "completed cells were not persisted; pass --cache-dir "
                    "DIR to make a re-run incremental"
                )
            print(f"[{exp_id}] {hint}", file=sys.stderr)
            if args.debug:
                raise
            return 3
        except Exception as exc:  # surface which experiment failed
            if args.debug:
                raise
            print(f"[{exp_id}] FAILED: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            if succeeded:
                print(
                    f"[{exp_id}] experiments completed before the failure: "
                    + ", ".join(succeeded),
                    file=sys.stderr,
                )
            print("(re-run with --debug for the full traceback)",
                  file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - t0
        print(output)
        print(f"\n[{exp_id} done in {elapsed:.1f}s at scale={scale.name}]\n")
        succeeded.append(exp_id)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

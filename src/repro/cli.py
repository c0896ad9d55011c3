"""``repro`` / ``python -m repro``: run any paper experiment by id.

Examples::

    repro tab1                        # Table I with measured entropies
    repro fig3 --scale quick
    repro fig3 --jobs 4               # shard the sweep across 4 workers
    repro fig3 --cache-dir .cache/    # persist results; repeats are free
    repro fig3 --telemetry out/       # also write out/run.json etc.
    repro fig3 --resume               # restore completed cells and finish
    repro fig3 --fault-plan 'worker.task,at=3,kill'   # chaos testing
    repro all                         # every table and figure
    repro list                        # enumerate experiment ids
    repro cache stats                 # inspect the persistent result cache
    repro cache clear --cache-dir .cache/
    repro report out/run.json         # render a telemetry artifact
    repro report --diff a/run.json b/run.json
    repro report out/run.json --timeline 3      # one job's flame graph
    repro slo check out/run.json --spec examples/slo/serve.json
    repro backends                    # list kernel backends + availability
    repro bench                       # benchmark kernels + fig3 slice
    repro bench --compare BENCH_baseline.json   # CI regression gate
    repro bench --matrix examples/bench/kernel_workload.yaml --quick
    repro bench --history bench-history/        # speedup trend + drift gate
    repro matrix validate examples/bench/*.yaml examples/bench/*.json
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

Every flag falls back to its environment variable with one documented
precedence order — **CLI flag > environment > default** — implemented by
:class:`repro.api.Settings` (``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
``REPRO_KERNELS``, ``REPRO_SHM``, ``REPRO_FAULT_PLAN``, ``REPRO_RESUME``,
``REPRO_CHECKPOINT_DIR``, ``REPRO_RETRY_*``, ``REPRO_SLO_SPEC``,
``REPRO_METRICS_OUT``, ``REPRO_METRICS_INTERVAL``,
``REPRO_LOADTEST_*``, ``REPRO_FLEET``, ``REPRO_OBJECTIVE``,
``REPRO_BENCH_MATRIX``, ``REPRO_BENCH_HISTORY``).
Subcommands read only the resolved ``Settings``; nothing else consults
the environment. The full knob catalogue lives in
``docs/CONFIGURATION.md``.

A sweep whose cells exhaust their retry budget does not abort: every
computable cell completes and is stored, the failures are summarized on
stderr (and in ``run.json`` as ``status: "partial"`` with a ``failures``
list under ``--telemetry``), and the process exits with code 3.

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
2 on breach (the CI gate). ``repro bench`` keeps its historical
behaviour (exit 4 on regression vs. the baseline artifact); ``repro
bench --matrix SPEC`` runs a declarative benchmark matrix (exit 1 if
any cell failed), ``repro bench --history DIR`` renders the speedup
trend over past artifacts and exits 5 when the rolling-window detector
flags drift, and ``repro matrix validate SPEC...`` checks specs without
running them. See ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import repro
from repro.experiments import EXPERIMENT_DESCRIPTIONS, EXPERIMENT_IDS
from repro.experiments.runner import SCALES

__all__ = ["main"]

#: Default spool file used by `repro submit` / `repro serve --spool`.
DEFAULT_SPOOL = Path(".repro") / "spool.jsonl"


def _run_one(exp_id: str, scale, telemetry_dir: Path | None) -> str:
    """Run one experiment through the blessed facade."""
    from repro.api import sweep

    return sweep(exp_id, scale, telemetry_dir=telemetry_dir)


def _cache_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the persistent sweep result cache.",
    )
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR, else "
             "~/.cache/repro/sweeps)",
    )
    args = parser.parse_args(argv)

    from repro.experiments.cache import ResultCache, default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
    return 0


def _backends_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro backends",
        description="List the kernel backends and their availability "
                    "(an optional backend whose dependency is missing "
                    "shows why and what it falls back to).",
    )
    parser.parse_args(argv)

    from repro.codec import kernels

    active = kernels.active_backend()
    rows = []
    for backend in kernels.all_backends():
        marker = "*" if backend.name == active else " "
        if backend.available:
            status = "available"
        else:
            status = (f"unavailable ({backend.unavailable_reason}), "
                      f"falls back to {kernels.DEFAULT_BACKEND}")
        rows.append((marker, backend.name, status, backend.description))
    name_w = max(len(r[1]) for r in rows)
    status_w = max(len(r[2]) for r in rows)
    print(f"  {'backend':<{name_w}}  {'status':<{status_w}}  description")
    for marker, name, status, desc in rows:
        print(f"{marker} {name:<{name_w}}  {status:<{status_w}}  {desc}")
    print(f"\n* = active backend (select with --kernels/$REPRO_KERNELS; "
          f"default {kernels.DEFAULT_BACKEND})")
    return 0


def _bench_main(argv: list[str]) -> int:
    from repro.codec.kernels import KERNEL_BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark the codec kernels across every available "
                    "backend and an end-to-end fig3 slice; or run a "
                    "declarative benchmark matrix (--matrix) / render "
                    "the speedup trend over past artifacts (--history).",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE.json",
        default=None,
        help="compare speedups against a baseline artifact; exit 4 on "
             "any regression beyond the threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="allowed fractional speedup drop before a comparison counts "
             "as a regression (default 0.25)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="artifact path (default: BENCH_<rev>.json in the cwd; with "
             "--history, an optional trend-JSON path)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        metavar="N",
        help="kernel repetitions per backend; best-of-N is reported",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller e2e slice, single repetitions (smoke mode); with "
             "--matrix, small proxy clips per cell",
    )
    parser.add_argument(
        "--matrix",
        metavar="SPEC",
        default=None,
        help="run a declarative benchmark matrix from a YAML/JSON spec "
             "(default: $REPRO_BENCH_MATRIX; see docs/BENCHMARKS.md)",
    )
    parser.add_argument(
        "--matrix-out",
        metavar="PATH",
        default="matrix.json",
        help="matrix artifact path (default: matrix.json)",
    )
    parser.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="render the speedup trend over the BENCH_*.json / "
             "matrix*.json artifacts in DIR; exit 5 when the rolling-"
             "window detector flags drift "
             "(default: $REPRO_BENCH_HISTORY)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="K",
        help="rolling-window size for --history (default: 5)",
    )
    parser.add_argument(
        "--drift",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed drop of the window median below the history best "
             "before --history flags drift (default: 0.10)",
    )
    parser.add_argument(
        "--kernels",
        choices=KERNEL_BACKENDS,
        default=None,
        help="CLI-layer kernel-backend override for matrix cells "
             "(spec < env < CLI; axes still pin their own cells)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="CLI-layer worker-count override for matrix sweep cells",
    )
    args = parser.parse_args(argv)

    from repro.api import Settings

    try:
        settings = Settings.resolve(
            kernels=args.kernels,
            jobs=args.jobs,
            bench_matrix=args.matrix,
            bench_history=args.history,
        )
    except ValueError as exc:
        parser.error(str(exc))

    if settings.bench_history is not None:
        return _bench_history(settings, args)
    if settings.bench_matrix is not None:
        return _bench_matrix(settings, args)

    from repro.bench import compare_bench, load_bench, render_bench, run_bench, write_bench

    payload = run_bench(reps=args.reps, quick=args.quick)
    path = write_bench(payload, args.output)
    print(render_bench(payload))
    print(f"\nwrote {path}")

    if args.compare is None:
        return 0
    try:
        baseline = load_bench(args.compare)
    except (OSError, ValueError) as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 1
    report, regressions = compare_bench(
        payload, baseline, threshold=args.threshold
    )
    print()
    print(report)
    return 4 if regressions else 0


def _bench_matrix(settings, args) -> int:
    """``repro bench --matrix``: run a declarative benchmark matrix."""
    from repro.api import bench_matrix
    from repro.bench import SpecError
    from repro.obs import render_matrix

    overrides: dict[str, object] = {}
    if args.kernels is not None:
        overrides["kernels"] = args.kernels
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    try:
        payload = bench_matrix(
            settings.bench_matrix,
            quick=args.quick,
            reps=args.reps,
            out=args.matrix_out,
            overrides=overrides,
        )
    except (SpecError, OSError) as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 1
    print(render_matrix(payload))
    print(f"\nwrote {args.matrix_out}")
    failed = [c for c in payload["cells"] if c["status"] != "ok"]
    return 1 if failed else 0


def _bench_history(settings, args) -> int:
    """``repro bench --history``: trend table + rolling-window gate."""
    from repro.bench import DEFAULT_DRIFT, DEFAULT_WINDOW, load_history, trend_payload
    from repro.obs import render_trend

    window = args.window if args.window is not None else DEFAULT_WINDOW
    drift = args.drift if args.drift is not None else DEFAULT_DRIFT
    try:
        entries = load_history(settings.bench_history)
        if not entries:
            print(
                f"repro bench: no BENCH_*.json / matrix*.json artifacts "
                f"in {settings.bench_history}",
                file=sys.stderr,
            )
            return 1
        trend = trend_payload(entries, window=window, drift=drift)
    except (OSError, ValueError) as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 1
    print(render_trend(trend))
    if args.output is not None:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(trend, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {out}")
    drifting = [v for v in trend["verdicts"] if v["status"] == "drift"]
    return 5 if drifting else 0


def _matrix_main(argv: list[str]) -> int:
    """``repro matrix validate``: check specs without running anything."""
    parser = argparse.ArgumentParser(
        prog="repro matrix",
        description="Validate declarative benchmark-matrix specs "
                    "(schema, axes, cell count) without running them.",
    )
    parser.add_argument("action", choices=("validate",))
    parser.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="YAML/JSON matrix spec file(s)",
    )
    args = parser.parse_args(argv)

    from repro.bench import SpecError, load_spec

    status = 0
    for path in args.specs:
        try:
            spec = load_spec(path)
        except SpecError as exc:
            print(f"repro matrix: {exc}", file=sys.stderr)
            status = 1
            continue
        axes = ", ".join(
            f"{name}[{len(values)}]" for name, values in spec.axes
        )
        print(
            f"{path}: ok — {spec.name} (leg={spec.leg}, axes: {axes}, "
            f"{spec.n_cells()} cells)"
        )
    return status


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

    from repro.obs import (
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

    from repro.api import Settings
    from repro.obs import evaluate_slo, load_run, load_slo_spec

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
    parser.add_argument("--policy", choices=("smart", "random"),
                        default="smart",
                        help="placement policy (default: smart)")
    parser.add_argument("--no-control", action="store_true",
                        help="skip the random-placement control pass")
    parser.add_argument("--fleet", metavar="SPEC", default=None,
                        help="worker fleet: 'name[:count][:$rate]' clauses "
                             "over Table IV configs and instance types, "
                             "e.g. 'fe_op,be_op1:2' or "
                             "'c5.xlarge,c6g.xlarge:2:$0.10' "
                             "(default: $REPRO_FLEET, else one worker per "
                             "Table IV variant)")
    parser.add_argument("--objective",
                        choices=("throughput", "min-cost", "min-latency"),
                        default=None,
                        help="smart-placement objective "
                             "(default: $REPRO_OBJECTIVE, else throughput)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job completion deadline constraining the "
                             "cost-aware objectives (virtual seconds)")
    parser.add_argument("--budget-usd", type=float, default=None,
                        metavar="RATE",
                        help="per-worker $/hour ceiling constraining the "
                             "cost-aware objectives")
    parser.add_argument("--queue-capacity", type=int, default=64,
                        help="admission queue bound (default: 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the random placement policy")
    parser.add_argument("--quick", action="store_true",
                        help="small proxy clips (48x32, 4 frames) for "
                             "smokes and CI")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="checkpoint queue state to PATH after every "
                             "dispatch round")
    parser.add_argument("--resume", action="store_true",
                        help="restore queue state from --checkpoint "
                             "(default: $REPRO_RESUME)")
    parser.add_argument("--fault-plan", metavar="PLAN", default=None,
                        help="inject deterministic faults, e.g. "
                             "'service.worker,at=3,raise=RuntimeError' "
                             "(default: $REPRO_FAULT_PLAN)")
    parser.add_argument("--telemetry", metavar="OUT_DIR", default=None,
                        help="write run.json/events.jsonl/trace.json and "
                             "the jobs.json status artifact into OUT_DIR")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="where to write jobs.json (default: the "
                             "--telemetry directory, else nowhere)")
    parser.add_argument("--slo", metavar="SPEC.json", default=None,
                        help="evaluate the run against this SLO spec; the "
                             "verdict lands in run.json and each metrics "
                             "snapshot (default: $REPRO_SLO_SPEC)")
    parser.add_argument("--metrics-out", metavar="DIR", default=None,
                        help="write live metrics.prom / slo.json snapshots "
                             "into DIR while the service runs "
                             "(default: $REPRO_METRICS_OUT)")
    parser.add_argument("--metrics-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="snapshot interval for --metrics-out "
                             "(default: $REPRO_METRICS_INTERVAL, else 30)")
    args = parser.parse_args(argv)

    from repro.api import ServiceConfig, Settings, serve, table3_requests
    from repro.service import parse_fleet_spec

    try:
        settings = Settings.resolve(
            fault_plan=args.fault_plan,
            resume=True if args.resume else None,
            slo_spec=args.slo,
            metrics_out=args.metrics_out,
            metrics_interval=args.metrics_interval,
            fleet=args.fleet,
            objective=args.objective,
        ).apply()
    except ValueError as exc:
        parser.error(str(exc))

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

    sizing = {"width": 48, "height": 32, "n_frames": 4} if args.quick else {}
    try:
        config = ServiceConfig(
            fleet=(parse_fleet_spec(settings.fleet) if settings.fleet
                   else ServiceConfig.fleet),
            policy=args.policy,
            objective=settings.objective,
            deadline_s=args.deadline_s,
            budget_usd=args.budget_usd,
            seed=args.seed,
            queue_capacity=args.queue_capacity,
            checkpoint_path=(Path(args.checkpoint) if args.checkpoint
                             else None),
            **sizing,
        )
    except ValueError as exc:
        parser.error(str(exc))

    try:
        report = serve(
            requests,
            config,
            control=not args.no_control,
            resume=settings.resume,
            telemetry_dir=args.telemetry,
            slo_spec=settings.slo_spec,
            metrics_out=settings.metrics_out,
            metrics_interval=settings.metrics_interval,
        )
    except (OSError, ValueError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 1
    print(report.render())

    out_dir = args.out or args.telemetry
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        jobs_path = out / "jobs.json"
        with open(jobs_path, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
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
    parser.add_argument("--arrivals",
                        choices=("poisson", "fixed", "diurnal", "mmpp"),
                        default=None,
                        help="arrival process "
                             "(default: $REPRO_LOADTEST_ARRIVALS, "
                             "else poisson)")
    parser.add_argument("--rate", metavar="R[,R...]", default=None,
                        help="offered rate(s) in req/s; a comma list runs "
                             "one leg per rate "
                             "(default: $REPRO_LOADTEST_RATE, else 8)")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="virtual seconds of offered traffic per leg "
                             "(default: $REPRO_LOADTEST_DURATION, else 30)")
    parser.add_argument("--mix", default=None,
                        help="workload mix name "
                             "(default: $REPRO_LOADTEST_MIX, else table3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for arrivals and mix sampling "
                             "(default: 0)")
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
    parser.add_argument("--fleet", metavar="SPEC", default=None,
                        help="worker fleet: 'name[:count][:$rate]' clauses "
                             "over Table IV configs and instance types "
                             "(default: $REPRO_FLEET, else one worker per "
                             "Table IV variant)")
    parser.add_argument("--policy", choices=("smart", "random"),
                        default="smart",
                        help="placement policy (default: smart)")
    parser.add_argument("--objective",
                        choices=("throughput", "min-cost", "min-latency"),
                        default=None,
                        help="smart-placement objective "
                             "(default: $REPRO_OBJECTIVE, else throughput)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job completion deadline constraining the "
                             "cost-aware objectives (virtual seconds)")
    parser.add_argument("--budget-usd", type=float, default=None,
                        metavar="RATE",
                        help="per-worker $/hour ceiling constraining the "
                             "cost-aware objectives")
    parser.add_argument("--queue-capacity", type=int, default=64,
                        help="admission queue bound; the knob that decides "
                             "when overload sheds (default: 64)")
    parser.add_argument("--clock-hz", type=float, default=None,
                        metavar="HZ",
                        help="virtual core frequency for charging encode "
                             "cycles (default: 1e6)")
    parser.add_argument("--quick", action="store_true",
                        help="small proxy clips (48x32, 4 frames) for "
                             "smokes and CI")
    parser.add_argument("--fault-plan", metavar="PLAN", default=None,
                        help="inject deterministic faults, e.g. "
                             "'service.worker,at=3,raise=RuntimeError' "
                             "(default: $REPRO_FAULT_PLAN)")
    parser.add_argument("--telemetry", metavar="OUT_DIR", default=None,
                        help="write run.json/events.jsonl/trace.json with "
                             "the offered/admitted/shed accounting under "
                             "meta.loadtest")
    parser.add_argument("--slo", metavar="SPEC.json", default=None,
                        help="evaluate the run against this SLO spec; the "
                             "verdict lands in run.json "
                             "(default: $REPRO_SLO_SPEC)")
    args = parser.parse_args(argv)

    from repro.api import (
        LoadtestSpec,
        ServiceConfig,
        Settings,
        loadtest,
    )
    from repro.service import parse_fleet_spec

    try:
        settings = Settings.resolve(
            fault_plan=args.fault_plan,
            slo_spec=args.slo,
            loadtest_arrivals=args.arrivals,
            loadtest_rate=args.rate,
            loadtest_duration=args.duration,
            loadtest_mix=args.mix,
            fleet=args.fleet,
            objective=args.objective,
        ).apply()
    except ValueError as exc:
        parser.error(str(exc))

    extras: dict[str, float] = {}
    if settings.loadtest_arrivals == "diurnal":
        extras = {"amplitude": args.amplitude, "period_s": args.period}
    elif settings.loadtest_arrivals == "mmpp":
        extras = {"burst": args.burst, "sojourn_s": args.sojourn}
    sizing = {"width": 48, "height": 32, "n_frames": 4} if args.quick else {}
    if args.clock_hz is not None:
        sizing["clock_hz"] = args.clock_hz
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
        config = ServiceConfig(
            fleet=(parse_fleet_spec(settings.fleet) if settings.fleet
                   else ServiceConfig.fleet),
            policy=args.policy,
            objective=settings.objective,
            deadline_s=args.deadline_s,
            budget_usd=args.budget_usd,
            seed=args.seed,
            queue_capacity=args.queue_capacity,
            **sizing,
        )
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
    parser.add_argument("--objective",
                        choices=("throughput", "min-cost", "min-latency"),
                        default=None,
                        help="smart-placement objective "
                             "(default: $REPRO_OBJECTIVE if cost-aware, "
                             "else min-cost)")
    parser.add_argument("--mix", default="table3",
                        help="workload: 'table3' or a loadgen mix name "
                             "(default: table3)")
    parser.add_argument("--count", type=int, default=None,
                        help="jobs per fleet (default: 16, or 8 with "
                             "--quick)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the mix sampler and the random "
                             "control (default: 0)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job completion deadline constraining the "
                             "cost-aware objectives (virtual seconds)")
    parser.add_argument("--budget-usd", type=float, default=None,
                        metavar="RATE",
                        help="per-worker $/hour ceiling constraining the "
                             "cost-aware objectives")
    parser.add_argument("--quick", action="store_true",
                        help="small proxy clips (48x32, 4 frames) and 8 "
                             "jobs per fleet for smokes and CI")
    parser.add_argument("--telemetry", metavar="OUT_DIR", default=None,
                        help="write run.json (with the per-fleet table "
                             "under meta.fleet_compare) into OUT_DIR")
    args = parser.parse_args(argv)

    from repro.api import Settings, fleet_compare
    from repro.service import FleetDef

    try:
        settings = Settings.resolve(objective=args.objective).apply()
    except ValueError as exc:
        parser.error(str(exc))

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
    sizing = {"width": 48, "height": 32, "n_frames": 4} if args.quick else {}
    try:
        report = fleet_compare(
            fleets,
            objective=args.objective,
            mix=args.mix,
            count=count,
            seed=args.seed,
            deadline_s=args.deadline_s,
            budget_usd=args.budget_usd,
            telemetry_dir=args.telemetry,
            settings=settings,
            **sizing,
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
    if argv[:1] == ["backends"]:
        return _backends_main(argv[1:])
    if argv[:1] == ["bench"]:
        return _bench_main(argv[1:])
    if argv[:1] == ["matrix"]:
        return _matrix_main(argv[1:])
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
               "`repro backends` lists the registered kernel backends "
               "and their availability; "
               "`repro bench [--compare BASELINE.json]` benchmarks the "
               "codec kernels and the fig3 slice (`--matrix SPEC` runs "
               "a declarative benchmark matrix, `--history DIR` renders "
               "the speedup trend and gates on rolling-window drift); "
               "`repro matrix validate SPEC...` checks matrix specs; "
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
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard sweeps across N worker processes "
             "(default: $REPRO_JOBS, else 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist sweep results under DIR so repeat runs are "
             "near-free (default: $REPRO_CACHE_DIR, else no persistent "
             "cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache even if "
             "$REPRO_CACHE_DIR is set",
    )
    from repro.codec.kernels import KERNEL_BACKENDS

    parser.add_argument(
        "--kernels",
        choices=KERNEL_BACKENDS,
        default=None,
        help="codec kernel backend (default: $REPRO_KERNELS, else "
             "vectorized; `repro backends` lists availability)",
    )
    parser.add_argument(
        "--no-shm",
        action="store_true",
        help="disable the shared-memory frame transport for multi-"
             "process sweeps and decode clips per worker instead "
             "(default: $REPRO_SHM, else enabled)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore cells completed by a previous interrupted run from "
             "its checkpoint manifest and compute only the missing ones "
             "(default: $REPRO_RESUME)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="where sweep checkpoint manifests live (default: "
             "$REPRO_CHECKPOINT_DIR, else checkpoints/ inside the "
             "persistent cache)",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="PLAN",
        default=None,
        help="inject deterministic faults, e.g. "
             "'sweep.compute,at=3,raise=InjectedFault;worker.task,at=5,kill' "
             "(default: $REPRO_FAULT_PLAN)",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise experiment failures with the full traceback",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    out_root = Path(args.telemetry) if args.telemetry else None

    from repro.api import Settings
    from repro.experiments.runner import SweepFailure

    # Everything process-wide goes through one resolved Settings:
    # CLI flag > environment variable > default.
    try:
        Settings.resolve(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            kernels=args.kernels,
            no_shm=args.no_shm,
            fault_plan=args.fault_plan,
            resume=True if args.resume else None,
            checkpoint_dir=args.checkpoint_dir,
        ).apply()
    except ValueError as exc:
        parser.error(str(exc))

    ids = list(EXPERIMENT_IDS) if args.experiment == "all" else [args.experiment]
    succeeded: list[str] = []
    for exp_id in ids:
        out_dir = None
        if out_root is not None:
            out_dir = out_root / exp_id if len(ids) > 1 else out_root
        t0 = time.perf_counter()
        try:
            output = _run_one(exp_id, scale, out_dir)
        except SweepFailure as exc:
            # Every computable cell completed and was stored before this
            # raised; report the stragglers and exit partial (code 3).
            print(f"[{exp_id}] PARTIAL: {exc}", file=sys.stderr)
            for failure in exc.failures:
                print(
                    f"[{exp_id}]   failed cell {failure.video} "
                    f"crf={failure.crf} refs={failure.refs} "
                    f"preset={failure.preset}: {failure.error}: "
                    f"{failure.message} (after {failure.attempts} attempts)",
                    file=sys.stderr,
                )
            print(
                f"[{exp_id}] completed cells are checkpointed; re-run with "
                "--resume to retry only the failed ones",
                file=sys.stderr,
            )
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

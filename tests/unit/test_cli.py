"""Unit tests for the top-level `repro` CLI plumbing."""

import json

import pytest

import repro
from repro.cli import EXPERIMENT_DESCRIPTIONS, EXPERIMENT_IDS, main
from repro.obs import session as obs
from repro.obs.export import export_session


class TestExperimentRegistry:
    def test_all_paper_artifacts_registered(self):
        for exp_id in ("tab1", "tab2", "tab3", "tab4",
                       "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert exp_id in EXPERIMENT_IDS

    def test_roofline_extension_registered(self):
        assert "roofline" in EXPERIMENT_IDS


class TestArgumentHandling:
    def test_requires_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig42"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["tab2", "--scale", "gigantic"])

    def test_static_table_runs(self, capsys):
        assert main(["tab4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "done in" in out

    def test_scale_flag_accepted(self, capsys):
        assert main(["tab2", "--scale", "medium"]) == 0
        assert "scale=medium" in capsys.readouterr().out


class TestVersionAndList:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_list_enumerates_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENT_IDS:
            assert exp_id in out
            assert EXPERIMENT_DESCRIPTIONS[exp_id] in out


class TestAllFailureHandling:
    def test_all_reports_succeeded_before_failure(self, capsys, monkeypatch):
        import repro.api.facade as facade

        real_render = facade.render_experiment

        def flaky(exp_id, scale):
            if exp_id == "tab3":
                raise RuntimeError("injected")
            return real_render(exp_id, scale)

        monkeypatch.setattr(facade, "render_experiment", flaky)
        assert main(["all"]) == 1
        captured = capsys.readouterr()
        assert "[tab3] FAILED: RuntimeError: injected" in captured.err
        assert "completed before the failure: tab1, tab2" in captured.err
        assert "--debug" in captured.err

    def test_debug_reraises(self, monkeypatch):
        import repro.api.facade as facade

        def boom(exp_id, scale):
            raise RuntimeError("injected")

        monkeypatch.setattr(facade, "render_experiment", boom)
        with pytest.raises(RuntimeError, match="injected"):
            main(["all", "--debug"])

    def test_single_experiment_failure_exits_nonzero(self, capsys, monkeypatch):
        import repro.api.facade as facade

        def boom(exp_id, scale):
            raise ValueError("bad")

        monkeypatch.setattr(facade, "render_experiment", boom)
        assert main(["tab4"]) == 1
        err = capsys.readouterr().err
        assert "[tab4] FAILED: ValueError: bad" in err
        assert "completed before" not in err


class TestTelemetry:
    def test_tab1_telemetry_artifacts(self, tmp_path, capsys):
        from repro.obs.export import load_run

        out = tmp_path / "out"
        assert main(["tab1", "--telemetry", str(out)]) == 0
        art = load_run(out / "run.json")  # validates against RUN_SCHEMA
        assert art["experiment"] == "tab1"
        assert art["scale"] == "quick"
        assert art["status"] == "ok"
        assert art["spans"]["experiment"]["calls"] == 1
        trace = json.loads((out / "trace.json").read_text())
        assert any(e["name"] == "experiment" for e in trace["traceEvents"])
        assert (out / "events.jsonl").exists()

    def test_failed_run_still_writes_artifact(self, tmp_path, capsys,
                                              monkeypatch):
        import repro.api.facade as facade
        from repro.obs.export import load_run

        def boom(exp_id, scale):
            raise RuntimeError("injected")

        monkeypatch.setattr(facade, "render_experiment", boom)
        out = tmp_path / "out"
        assert main(["tab4", "--telemetry", str(out)]) == 1
        art = load_run(out / "run.json")
        assert art["status"] == "failed"

    def test_all_uses_per_experiment_subdirs(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.api.facade as facade

        def tiny(exp_id, scale):
            if exp_id not in ("tab1", "tab2"):
                raise RuntimeError("skip the slow ones")
            return "ok"

        monkeypatch.setattr(facade, "render_experiment", tiny)
        out = tmp_path / "out"
        main(["all", "--telemetry", str(out)])
        assert (out / "tab1" / "run.json").exists()
        assert (out / "tab2" / "run.json").exists()

    def test_session_closed_after_run(self, tmp_path, capsys):
        from repro.obs import session as obs

        assert main(["tab4", "--telemetry", str(tmp_path / "o")]) == 0
        assert not obs.enabled()


class TestCacheCommand:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries    : 0" in out
        assert str(tmp_path) in out

    def test_stats_defaults_to_env_cache_dir(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envd"))
        assert main(["cache", "stats"]) == 0
        assert "envd" in capsys.readouterr().out

    def test_clear_removes_entries(self, tmp_path, capsys):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(tmp_path)
        cache.put_value("ab" * 32, {"x": 1}, kind="sweep")
        cache.put_value("cd" * 32, {"y": 2}, kind="sweep")
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 cache entries" in capsys.readouterr().out
        assert cache.stats().entries == 0

    def test_clear_is_idempotent(self, tmp_path, capsys):
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_rejects_unknown_action(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune"])


class TestEngineFlags:
    def test_jobs_flag_configures_engine(self, capsys):
        from repro.experiments import parallel

        assert main(["tab4", "--jobs", "3"]) == 0
        assert parallel.default_jobs() == 3

    def test_jobs_env_fallback(self, capsys, monkeypatch):
        from repro.experiments import parallel

        monkeypatch.setenv("REPRO_JOBS", "5")
        assert main(["tab4"]) == 0
        assert parallel.default_jobs() == 5

    def test_cache_dir_flag_configures_engine(self, tmp_path, capsys):
        from repro.experiments import parallel

        assert main(["tab4", "--cache-dir", str(tmp_path / "c")]) == 0
        cache = parallel.default_cache()
        assert cache is not None
        assert str(cache.root).endswith("c")

    def test_no_cache_overrides_env(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import parallel

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envd"))
        assert main(["tab4", "--no-cache"]) == 0
        assert parallel.default_cache() is None


def _v3_payload(cost=3.0, *, rev="abc1234", dirty=False):
    """A minimal well-formed repro-bench/v3 artifact."""
    from repro.bench.report import BENCH_SCHEMA

    return {
        "schema": BENCH_SCHEMA,
        "rev": rev,
        "dirty": dirty,
        "timestamp": 1000.0,
        "host": {"python": "3", "numpy": "1", "machine": "m"},
        "kernels": {
            "transform.forward_4x4": {
                "blocks": 64.0, "ns_per_block": 50.0,
                "calibration_s": 0.01, "cost": cost,
            },
        },
        "encode": {
            "width": 112, "height": 64, "n_frames": 12,
            "cells": [{"crf": 23, "refs": 1, "seconds": 0.03, "cost": cost}],
            "seconds": 0.03, "cost": cost,
        },
        "metrics": {},
    }


class TestBenchGate:
    """``repro bench --compare``: one program, whatever the environment
    says, against a baseline that is checked before anything is timed."""

    @pytest.fixture
    def measured(self, monkeypatch):
        """Replace the minute-long measurement with a canned payload and
        record each call."""
        calls = []

        def run_bench(**kwargs):
            calls.append(kwargs)
            return _v3_payload(3.0, rev="def5678")

        monkeypatch.setattr("repro.bench.harness.run_bench", run_bench)
        return calls

    def _baseline(self, tmp_path, **kwargs):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(_v3_payload(**kwargs)))
        return path

    @pytest.mark.parametrize(
        "var", ["REPRO_BENCH_HISTORY", "REPRO_BENCH_MATRIX"]
    )
    def test_environment_cannot_divert_the_gate(self, var, tmp_path, capsys,
                                                monkeypatch, measured):
        monkeypatch.setenv(var, str(tmp_path / "elsewhere"))
        out = tmp_path / "BENCH_now.json"
        assert main(["bench", "--output", str(out),
                     "--compare", str(self._baseline(tmp_path))]) == 0
        assert measured == [{"reps": 3}]
        text = capsys.readouterr().out
        assert "comparing def5678 against baseline abc1234" in text
        assert "no regressions" in text
        assert out.exists()

    def test_regression_exits_four(self, tmp_path, capsys, measured):
        baseline = self._baseline(tmp_path, cost=1.0)
        assert main(["bench", "--output", str(tmp_path / "B.json"),
                     "--compare", str(baseline)]) == 4
        assert "encode:fig3-slice" in capsys.readouterr().out

    def test_unusable_baseline_exits_one_before_measuring(
            self, tmp_path, capsys, measured):
        dirty = self._baseline(tmp_path, dirty=True)
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps({
            "schema": "repro-bench/v1", "rev": "ab29421", "dirty": False,
            "kernels": {}, "e2e": {"speedup": 3.0},
        }))
        # A speedup-ratio baseline from before the one body: its rows are
        # not costs, so it must be re-measured, not compared.
        v2 = tmp_path / "v2.json"
        v2_payload = _v3_payload()
        v2_payload["schema"] = "repro-bench/v2"
        v2.write_text(json.dumps(v2_payload))
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps(_v3_payload(float("nan"))))
        for path, complaint in [
            (dirty, "dirty tree"),
            (tmp_path / "missing.json", "missing.json"),
            (v1, "not a repro-bench/v3"),
            (v2, "not a repro-bench/v3"),
            (nan, "not a finite positive number"),
        ]:
            assert main(["bench", "--compare", str(path)]) == 1
            assert complaint in capsys.readouterr().err
        assert measured == []

    @pytest.mark.parametrize("argv", [
        ["bench", "--matrix", "X"],
        ["bench", "--matrix-out", "X"],
        ["bench", "--kernels", "vectorized"],
        ["bench", "--jobs", "2"],
        ["matrix", "validate", "X"],
        # The drift gate's flags, and --threshold.
        ["bench", "--history", "X"],
        ["bench", "--window", "3"],
        ["bench", "--drift", "0.1"],
        ["bench", "--threshold", "0.5"],
        # Fewer than three kernel repetitions is a usage error, not a
        # silently raised floor.
        ["bench", "--reps", "2"],
        # With one body the full run is the only mode.
        ["bench", "--quick"],
    ], ids=" ".join)
    def test_matrix_surface_is_gone(self, argv, capsys, measured):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert measured == []


class TestReport:
    def _make_artifact(self, tmp_path, name):
        out = tmp_path / name
        assert main(["tab4", "--telemetry", str(out)]) == 0
        return out / "run.json"

    def test_report_renders(self, tmp_path, capsys):
        path = self._make_artifact(tmp_path, "a")
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tab4" in out
        assert "wall=" in out

    def test_report_diff(self, tmp_path, capsys):
        a = self._make_artifact(tmp_path, "a")
        b = self._make_artifact(tmp_path, "b")
        capsys.readouterr()
        assert main(["report", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "diff:" in out
        assert "wall_seconds" in out
        assert "delta" in out

    def test_report_diff_needs_two(self, tmp_path, capsys):
        a = self._make_artifact(tmp_path, "a")
        with pytest.raises(SystemExit):
            main(["report", "--diff", str(a)])

    def test_report_missing_file_is_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 1
        assert "repro report:" in capsys.readouterr().err

    def test_report_rejects_invalid_artifact(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        assert main(["report", str(bad)]) == 1
        assert "missing required field" in capsys.readouterr().err

    @pytest.mark.parametrize("section, payload, where", [
        ("loadtest", {"legs": [{"rate": 8.0}]}, "meta.loadtest: missing"),
        ("loadtest", {"spec": {}, "legs": ["oops"]}, "meta.loadtest"),
        ("fleet_compare", {"fleets": [{"workers": 4}]},
         "meta.fleet_compare: missing"),
        ("fleet_compare", 7, "meta.fleet_compare: expected an object"),
        ("slo", {"spec": "gate", "objectives": [{"name": "x"}]},
         "slo.objectives[0]: missing"),
        ("slo", {"spec": 3, "objectives": []}, "slo.spec: expected str"),
    ], ids=["loadtest-missing", "loadtest-mistyped", "fleet-missing",
            "fleet-mistyped", "slo-missing", "slo-mistyped"])
    def test_report_refuses_a_malformed_section(self, tmp_path, capsys,
                                                section, payload, where):
        """A section with a missing key or a wrong type exits 1 with one
        `repro report:` line naming the section: no traceback, and no
        table with placeholder or zero rows on stdout."""
        with obs.telemetry_session() as tel:
            if section != "slo":
                tel.meta[section] = payload
        export_session(tel, tmp_path, experiment="loadtest", scale="x",
                       wall_seconds=1.0,
                       slo=payload if section == "slo" else None)
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run.json")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"repro report: {where}")
        assert err.count("\n") == 1 and "Traceback" not in err


#: Every subcommand's flags and positionals, captured from the commit
#: before the flags moved into the Settings field table: the guard that
#: the move dropped or renamed none ("" is the experiment-running form).
#: ``--no-shm`` left with the shared-memory transport (2.0.0);
#: ``--checkpoint-dir`` and the sweeps' ``--resume`` left with the sweep
#: checkpoint manifest; ``bench``
#: lost ``--matrix --matrix-out --kernels --jobs`` and the ``matrix``
#: subcommand with the matrix compiler, then ``--history --window
#: --drift`` with the drift gate and ``--threshold`` with them, then
#: ``--quick`` with the second codec body, which also took ``--kernels``
#: and the ``backends`` subcommand. ``serve`` lost ``--checkpoint
#: --resume`` with the service checkpoint (its resume re-ran done jobs),
#: then ``--metrics-interval`` with the metrics-snapshot thread
#: (``--metrics-out`` is written once, when the pass ends).
FROZEN_FLAGS = {
    "": "--cache-dir --debug --fault-plan --jobs "
        "--no-cache --scale --telemetry --version "
        "experiment",
    "bench": "--compare --output --reps",
    "cache": "--cache-dir action",
    "serve": "--budget-usd --count --deadline-s --fault-plan "
             "--fleet --metrics-out --mix --no-control "
             "--objective --out --policy --queue-capacity --quick "
             "--seed --slo --spool --telemetry",
    "loadtest": "--amplitude --arrivals --budget-usd --burst --clock-hz "
                "--closed-loop --deadline-s --duration --fault-plan --fleet "
                "--mix --objective --open-loop --period --policy "
                "--queue-capacity --quick --rate --seed --slo --sojourn "
                "--telemetry",
    "fleet-compare": "--budget-usd --count --deadline-s --fleet --mix "
                     "--objective --quick --seed --telemetry",
    "slo": "--spec action artifact",
    "submit": "--crf --deadline-ms --preset --priority --refs --spool clip",
    "report": "--diff --timeline artifacts",
}


class TestFlagSurface:
    @pytest.mark.parametrize(
        "sub", ["", "bench", "serve", "loadtest", "fleet-compare"]
    )
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"] if sub else ["--help"])
        assert exc.value.code == 0
        assert "usage: repro" in capsys.readouterr().out

    @pytest.mark.parametrize("sub", FROZEN_FLAGS)
    def test_flag_set_is_frozen(self, sub, monkeypatch):
        import argparse

        class Captured(Exception):
            pass

        def capture(parser, args=None, namespace=None):
            raise Captured(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(Captured) as exc:
            main([sub] if sub else [])
        actions = exc.value.args[0]._actions
        names = {
            name
            for action in actions
            for name in (action.option_strings or [action.dest])
        } - {"-h", "--help"}
        assert sorted(names) == FROZEN_FLAGS[sub].split()

    def test_no_shm_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tab4", "--no-shm"])
        assert exc.value.code == 2
        assert "--no-shm" in capsys.readouterr().err

    def test_kernels_flag_is_an_unknown_argument(self, capsys):
        """The backend switch is gone with no alias: ``--kernels`` is a
        usage error like any flag that never existed."""
        for argv in (["--kernels", "vectorized", "tab1"],
                     ["tab1", "--kernels", "vectorized"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "unrecognized arguments: --kernels" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--checkpoint-dir", "X"], ["--resume"]])
    def test_sweep_checkpoint_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--checkpoint", "P"], ["--resume"]])
    def test_serve_checkpoint_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--mix", "table3", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_serve_metrics_interval_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--mix", "table3", "--metrics-interval", "1"])
        assert exc.value.code == 2
        assert "--metrics-interval" in capsys.readouterr().err

    def test_settings_flags_are_declared_from_the_table(self):
        import argparse

        from repro.api.settings import FIELD_TABLE
        from repro.cli import add_settings_flags
        from repro.service.placement import OBJECTIVES

        flagged = [f for f, knob in FIELD_TABLE.items() if knob.flag]
        assert set(FIELD_TABLE) - set(flagged) == {"retry"}
        parser = argparse.ArgumentParser()
        add_settings_flags(parser, *flagged)
        by_flag = {
            action.option_strings[0]: action
            for action in parser._actions if action.dest != "help"
        }
        assert set(by_flag) == {FIELD_TABLE[f].flag for f in flagged}
        # Choices come off the live registries; absent flags parse to
        # "not given" (None, or False for the store_true ones).
        assert by_flag["--objective"].choices == tuple(OBJECTIVES)
        assert all(a.default in (None, False) for a in by_flag.values())
        assert "$REPRO_JOBS, else 1" in by_flag["--jobs"].help
        assert "$REPRO_LOADTEST_RATE, else 8)" in by_flag["--rate"].help


#: One bad value per service / load-test field, with the refusal its
#: owner (`ServiceConfig`, `LoadtestSpec`) words for it.
BAD_FIELD_ENV = {
    "REPRO_OBJECTIVE": (
        "unknown objective 'bogus'; choose from throughput, min-cost, "
        "min-latency"
    ),
    "REPRO_LOADTEST_MIX": (
        "unknown workload mix 'bogus'; choose from entropy_spread, "
        "hd_streams, screencast, table3"
    ),
    "REPRO_LOADTEST_ARRIVALS": (
        "unknown arrival process 'bogus'; choose from poisson, fixed, "
        "diurnal, mmpp"
    ),
    "REPRO_FLEET": "unknown fleet entry 'bogus'; choose a µarch config",
}

SERVE = ["serve", "--mix", "table3", "--count", "2", "--quick"]
LOADTEST = ["loadtest", "--quick", "--duration", "1"]
FLEET_COMPARE = ["fleet-compare", "--quick", "--count", "2"]


class TestFieldsAreValidatedByTheirReaders:
    """A service or load-test field is checked by the command that reads
    it, before any job runs, and by no other command."""

    @pytest.mark.parametrize("var", sorted(BAD_FIELD_ENV))
    def test_a_command_that_does_not_read_the_field_runs(
            self, var, tmp_path, capsys, monkeypatch):
        from repro.api.settings import ENV_VARS, Settings

        monkeypatch.setenv(var, "bogus")
        assert getattr(Settings.from_env(), ENV_VARS[var]) == "bogus"
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert main(["tab4"]) == 0
        assert "Table IV" in capsys.readouterr().out

    @pytest.mark.parametrize("var, argv, code", [
        ("REPRO_OBJECTIVE", SERVE, 2),
        ("REPRO_OBJECTIVE", LOADTEST, 2),
        ("REPRO_OBJECTIVE", FLEET_COMPARE, 1),
        ("REPRO_LOADTEST_MIX", LOADTEST, 2),
        ("REPRO_LOADTEST_ARRIVALS", LOADTEST, 2),
        ("REPRO_FLEET", SERVE, 2),
        ("REPRO_FLEET", LOADTEST, 2),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_a_command_that_reads_the_field_refuses_it_before_any_job(
            self, var, argv, code, capsys, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a job ran before the field was checked")

        for target in (
            "repro.service.service.run_service",
            "repro.loadgen.driver.run_loadtest",
            "repro.service.fleetcompare.TranscodeService",
        ):
            monkeypatch.setattr(target, ran)
        monkeypatch.setenv(var, "bogus")
        if code == 2:  # a usage error through the command's parser
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == code
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: " in err
        assert BAD_FIELD_ENV[var] in err

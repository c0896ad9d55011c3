"""Unit tests for the consolidated ``repro.api.Settings`` record.

Covers the documented precedence order (CLI flag > environment >
default), eager validation, and ``apply`` installing exactly the record
— the subsystems never look at the environment themselves.
"""

from pathlib import Path

import pytest

from repro.api import ENV_VARS, Settings
from repro.api.settings import FIELD_TABLE
from repro.experiments import parallel as engine
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, retry_policy

ALL_ENV = (
    "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_KERNELS", "REPRO_FAULT_PLAN",
    "REPRO_RESUME", "REPRO_CHECKPOINT_DIR", "REPRO_RETRY_ATTEMPTS",
    "REPRO_RETRY_BASE_DELAY", "REPRO_RETRY_MAX_DELAY",
    "REPRO_BENCH_MATRIX", "REPRO_BENCH_HISTORY",
) + tuple(var for var in ENV_VARS if not var.endswith("*"))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Isolate each test from ambient REPRO_* vars (the conftest fixture
    re-installs the environment's settings afterwards)."""
    for var in ALL_ENV:
        monkeypatch.delenv(var, raising=False)


class TestDefaults:
    def test_builtin_defaults(self):
        s = Settings()
        assert s.jobs == 1
        assert s.cache_dir is None
        assert s.cache_enabled is True
        assert s.fault_plan is None

    def test_env_vars_map_to_real_fields(self):
        field_names = set(Settings.__dataclass_fields__)
        for field in ENV_VARS.values():
            assert field in field_names


class TestValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Settings(jobs=0)

    def test_rejects_malformed_fault_plan_eagerly(self):
        with pytest.raises(ValueError):
            Settings(fault_plan="sweep.compute,at=not-a-number")


class TestPrecedence:
    def test_env_beats_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        s = Settings.from_env()
        assert s.jobs == 3
        assert s.cache_dir == tmp_path / "c"

    def test_cli_flag_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        s = Settings.resolve(jobs=5, cache_dir=tmp_path / "c")
        assert s.jobs == 5
        assert s.cache_dir == tmp_path / "c"

    def test_absent_flag_falls_through_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert Settings.resolve().jobs == 7

    def test_no_cache_flag_disables_cache(self):
        assert Settings.resolve(no_cache=True).cache_enabled is False
        assert Settings.resolve().cache_enabled is True

    def test_garbage_env_jobs_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert Settings.from_env().jobs == 1

    def test_shm_knob_is_gone(self, monkeypatch):
        # Removed outright in 2.0.0: no field, no alias, no variable.
        with pytest.raises(TypeError):
            Settings(shm=False)
        with pytest.raises(TypeError, match="no_shm"):
            Settings.resolve(no_shm=True)
        monkeypatch.setenv("REPRO_SHM", "0")
        assert Settings.from_env() == Settings()
        assert "REPRO_SHM" not in ENV_VARS

    def test_checkpoint_dir_knob_is_gone(self, monkeypatch):
        # The sweep manifest was a second copy of the result cache:
        # removed outright, no field, no alias, no variable.
        with pytest.raises(TypeError):
            Settings(checkpoint_dir=Path("ck"))
        with pytest.raises(TypeError, match="checkpoint_dir"):
            Settings.resolve(checkpoint_dir="ck")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "ck")
        assert Settings.from_env() == Settings()
        assert "REPRO_CHECKPOINT_DIR" not in ENV_VARS

    @pytest.mark.parametrize("value", ["reference", "simd"])
    def test_kernels_knob_is_gone(self, value, monkeypatch):
        # The codec has one body: no field, no alias, and the variable is
        # ignored like any unset one, whatever it names — the encode is
        # the golden one.
        import hashlib

        from repro.codec.encoder import encode
        from repro.codec.options import EncoderOptions
        from repro.video.synthetic import SceneSpec, generate_scene

        with pytest.raises(TypeError):
            Settings(kernels=value)
        with pytest.raises(TypeError, match="kernels"):
            Settings.resolve(kernels=value)
        monkeypatch.setenv("REPRO_KERNELS", value)
        assert Settings.from_env() == Settings()
        assert "REPRO_KERNELS" not in ENV_VARS
        Settings.from_env().apply()
        video = generate_scene(
            SceneSpec(width=48, height=32, n_frames=4, seed=5, name="pin")
        )
        options = EncoderOptions(
            crf=20, refs=2, bframes=1, partitions="all", chroma=True
        )
        bitstream = encode(video, options).stream.bitstream
        assert hashlib.sha256(bitstream).hexdigest() == (
            "1986ad9deffc3a18f3cda51129bf8b03bc91d137432c788ff15e8792ffec4e5d"
        )

    def test_retry_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "5")
        s = Settings.from_env()
        assert s.retry.max_attempts == 5

    @pytest.mark.parametrize("field, var, value", [
        ("bench_matrix", "REPRO_BENCH_MATRIX", Path("m.yaml")),
        ("bench_history", "REPRO_BENCH_HISTORY", Path("hist")),
        ("resume", "REPRO_RESUME", True),
    ], ids=["bench_matrix", "bench_history", "resume"])
    def test_command_selecting_knobs_are_gone(self, field, var, value,
                                              monkeypatch):
        # Which program `repro bench` runs, and whether `repro serve`
        # resumes, are flags of those commands: no field, no variable.
        with pytest.raises(TypeError):
            Settings(**{field: value})
        with pytest.raises(TypeError, match=field):
            Settings.resolve(**{field: value})
        monkeypatch.setenv(var, "1")
        assert Settings.from_env() == Settings()
        assert var not in ENV_VARS

    def test_env_overrides_empty_when_unset(self):
        assert Settings.env_overrides() == {}

    def test_env_overrides_returns_only_set_keys(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        overrides = Settings.env_overrides()
        assert overrides == {"jobs": 3}


class TestApply:
    def test_apply_pushes_into_subsystems(self, tmp_path):
        plan = "sweep.compute,at=99,raise=InjectedFault"
        s = Settings(
            jobs=2,
            cache_dir=tmp_path / "cache",
            retry=RetryPolicy(max_attempts=4),
            fault_plan=plan,
        )
        assert s.apply() is s
        assert engine.default_jobs() == 2
        assert retry_policy().max_attempts == 4
        assert faults.active_plan() is not None

    def test_apply_without_cache_disables_it(self):
        Settings(cache_enabled=False).apply()
        assert engine.default_cache() is None

    def test_apply_installs_exactly_the_record(self, monkeypatch, tmp_path):
        """What is installed is the record and nothing else: with every
        subsystem knob exported, the built-in defaults still install as
        the defaults, and only ``from_env()`` brings the environment in."""
        plan = "sweep.compute,at=1,raise=InjectedFault"
        monkeypatch.setenv("REPRO_JOBS", "5")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan)
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "7")

        Settings().apply()
        assert engine.default_jobs() == 1
        assert engine.default_cache() is None
        assert not faults.active_plan()
        assert retry_policy().max_attempts == 3

        Settings.from_env().apply()
        assert engine.default_jobs() == 5
        assert engine.default_cache().root == tmp_path / "envcache"
        assert faults.active_plan() == faults.parse_fault_plan(plan)
        assert retry_policy().max_attempts == 7


class TestFrozen:
    def test_settings_is_immutable(self):
        s = Settings()
        with pytest.raises(AttributeError):
            s.jobs = 8

    def test_resolve_accepts_str_paths(self):
        s = Settings.resolve(cache_dir="somewhere", metrics_out="else")
        assert isinstance(s.cache_dir, Path)
        assert isinstance(s.metrics_out, Path)


#: One sample per field-table row: the environment that sets the field
#: and the value it must coerce to, then a ``resolve()`` keyword/value
#: that must beat that environment and what it coerces to.
_PLAN = "sweep.compute,raise=InjectedFault,at=9"  # format_fault_plan's order
SAMPLES = {
    "jobs": ({"REPRO_JOBS": "3"}, 3, {"jobs": "5"}, 5),
    "cache_dir": ({"REPRO_CACHE_DIR": "env/c"}, Path("env/c"),
                  {"cache_dir": "cli/c"}, Path("cli/c")),
    "cache_enabled": ({}, True, {"no_cache": True}, False),
    "retry": ({"REPRO_RETRY_ATTEMPTS": "5"}, RetryPolicy(max_attempts=5),
              {"retry": RetryPolicy(max_attempts=7)},
              RetryPolicy(max_attempts=7)),
    "fault_plan": ({"REPRO_FAULT_PLAN": _PLAN}, _PLAN,
                   {"fault_plan": "worker.task,at=5,kill"},
                   "worker.task,at=5,kill"),
    "slo_spec": ({"REPRO_SLO_SPEC": "env.json"}, Path("env.json"),
                 {"slo_spec": "cli.json"}, Path("cli.json")),
    "metrics_out": ({"REPRO_METRICS_OUT": "env/m"}, Path("env/m"),
                    {"metrics_out": "cli/m"}, Path("cli/m")),
    "metrics_interval": ({"REPRO_METRICS_INTERVAL": "2.5"}, 2.5,
                         {"metrics_interval": 7}, 7.0),
    "loadtest_arrivals": ({"REPRO_LOADTEST_ARRIVALS": "MMPP"}, "mmpp",
                          {"loadtest_arrivals": "Fixed"}, "fixed"),
    "loadtest_rate": ({"REPRO_LOADTEST_RATE": "4, 8"}, (4.0, 8.0),
                      {"loadtest_rate": [16]}, (16.0,)),
    "loadtest_duration": ({"REPRO_LOADTEST_DURATION": "12"}, 12.0,
                          {"loadtest_duration": 3}, 3.0),
    "loadtest_mix": ({"REPRO_LOADTEST_MIX": "HD_streams"}, "hd_streams",
                     {"loadtest_mix": "screencast"}, "screencast"),
    "fleet": ({"REPRO_FLEET": "fe_op,be_op1:2"}, "fe_op,be_op1:2",
              {"fleet": "c5.xlarge"}, "c5.xlarge"),
    "objective": ({"REPRO_OBJECTIVE": "Min-Cost"}, "min-cost",
                  {"objective": "min-latency"}, "min-latency"),
}


def _cache_root():
    cache = engine.default_cache()
    return cache and cache.root


#: What each subsystem reports, for the rows a subsystem holds, in the
#: shape of the row's ``SAMPLES`` value.
SUBSYSTEM_STATE = {
    "jobs": engine.default_jobs,
    "cache_dir": _cache_root,
    "retry": retry_policy,
    "fault_plan": lambda: faults.format_fault_plan(faults.active_plan() or ()),
}


class TestFieldTable:
    """Behaviours every row must have, parametrized over the table."""

    def test_one_row_per_field_and_one_sample_per_row(self):
        fields = list(Settings.__dataclass_fields__)
        assert list(FIELD_TABLE) == fields
        assert set(SAMPLES) == set(fields)
        assert len(fields) == 14

    def test_env_vars_derive_from_the_rows(self):
        assert ENV_VARS == {
            knob.env: field for field, knob in FIELD_TABLE.items() if knob.env
        }
        assert len(ENV_VARS) == 13  # cache_enabled has no variable
        assert "REPRO_RETRY_*" in ENV_VARS

    @pytest.mark.parametrize("field", FIELD_TABLE)
    def test_env_round_trips_to_the_coerced_value(self, field, monkeypatch):
        env, expected, _flags, _value = SAMPLES[field]
        for var, raw in env.items():
            monkeypatch.setenv(var, raw)
        assert getattr(Settings.from_env(), field) == expected
        # env_overrides() returns exactly the keys the environment set.
        assert Settings.env_overrides() == ({field: expected} if env else {})

    @pytest.mark.parametrize("field", FIELD_TABLE)
    def test_flag_beats_env(self, field, monkeypatch):
        env, _expected, flags, value = SAMPLES[field]
        for var, raw in env.items():
            monkeypatch.setenv(var, raw)
        resolved = Settings.resolve(**flags)
        assert getattr(resolved, field) == value
        assert type(getattr(resolved, field)) is type(value)
        # A flag that was not given (None / False) leaves the env value.
        (name, given), = flags.items()
        absent = False if isinstance(given, bool) and given else None
        assert Settings.resolve(**{name: absent}) == Settings.from_env()

    @pytest.mark.parametrize("field", [
        "jobs", "metrics_interval", "loadtest_rate", "loadtest_duration",
    ])
    def test_malformed_numeric_env_is_ignored(self, field, monkeypatch):
        monkeypatch.setenv(FIELD_TABLE[field].env, "many")
        assert Settings.env_overrides() == {}
        assert Settings.from_env() == Settings()

    def test_unknown_resolve_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="bogus.*valid names.*jobs"):
            Settings.resolve(bogus=1)

    @pytest.mark.parametrize("field", SUBSYSTEM_STATE)
    def test_exporting_after_apply_changes_nothing(self, field, monkeypatch):
        """The mirror: a variable exported *after* an ``apply()`` reaches
        no subsystem until the next ``from_env().apply()``."""
        env, expected, _flags, _value = SAMPLES[field]
        Settings().apply()
        before = SUBSYSTEM_STATE[field]()
        for var, raw in env.items():
            monkeypatch.setenv(var, raw)
        assert SUBSYSTEM_STATE[field]() == before
        Settings.from_env().apply()
        after = SUBSYSTEM_STATE[field]()
        assert after == expected != before

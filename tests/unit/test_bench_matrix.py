"""Matrix specs: parsing with line context, expansion, precedence, runs."""

from __future__ import annotations

import json

import pytest

from repro.api import Settings
from repro.bench import (
    MATRIX_SCHEMA,
    MatrixSpec,
    SpecError,
    load_matrix,
    load_spec,
    resolve_cell_settings,
    run_matrix,
    write_matrix,
)
from repro.obs import render_matrix

ENV_VARS = ("REPRO_KERNELS", "REPRO_JOBS", "REPRO_LOADTEST_MIX")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    yield
    Settings.reset()


def _encode_spec(**kwargs):
    base = dict(
        name="t",
        leg="encode",
        axes=(("kernels", ("reference", "vectorized")),
              ("clip", ("cricket", "landscape"))),
        params={"crf": 23},
    )
    base.update(kwargs)
    return MatrixSpec(**base)


class TestSpecModel:
    def test_expansion_is_the_cross_product(self):
        spec = _encode_spec()
        cells = spec.expand()
        assert spec.n_cells() == len(cells) == 4
        assert cells[0].cell_id == "kernels=reference/clip=cricket"
        assert cells[0].values == {"kernels": "reference", "clip": "cricket"}
        # Declaration order drives both cell ids and iteration order.
        assert [c.cell_id for c in cells] == [
            "kernels=reference/clip=cricket",
            "kernels=reference/clip=landscape",
            "kernels=vectorized/clip=cricket",
            "kernels=vectorized/clip=landscape",
        ]

    def test_rejects_duplicate_axis_values(self):
        with pytest.raises(SpecError, match="double-count"):
            _encode_spec(axes=(("clip", ("cricket", "cricket")),))

    def test_rejects_unknown_axis_for_leg(self):
        with pytest.raises(SpecError, match="unknown axis 'rate'"):
            _encode_spec(axes=(("clip", ("cricket",)), ("rate", (4,))))

    def test_rejects_unknown_leg(self):
        with pytest.raises(SpecError, match="unknown leg"):
            _encode_spec(leg="teleport")

    def test_rejects_missing_required_key(self):
        with pytest.raises(SpecError, match="needs clip"):
            _encode_spec(axes=(("kernels", ("reference",)),), params={})

    def test_rejects_settings_shadowed_by_axis(self):
        with pytest.raises(SpecError, match="shadowed"):
            _encode_spec(settings={"kernels": "reference"})

    def test_rejects_param_colliding_with_axis(self):
        with pytest.raises(SpecError, match="collides"):
            _encode_spec(params={"clip": "cricket"},
                         axes=(("clip", ("cricket",)),))


class TestLoadSpec:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(
            "name: demo\n"
            "leg: encode\n"
            "axes:\n"
            "  kernels: [reference, vectorized]\n"
            "  clip: [cricket]\n"
            "params:\n"
            "  crf: 23\n"
        )
        spec = load_spec(path)
        assert spec.name == "demo"
        assert spec.n_cells() == 2
        assert spec.params == {"crf": 23}
        assert spec.source == str(path)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "name": "demo",
            "leg": "encode",
            "axes": {"clip": ["cricket", "landscape"]},
        }))
        assert load_spec(path).n_cells() == 2

    def test_yaml_error_carries_line(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(
            "name: demo\n"
            "leg: encode\n"
            "axes:\n"
            "  clip: [cricket]\n"
            "  rate: [4, 16]\n"
        )
        with pytest.raises(SpecError) as exc:
            load_spec(path)
        assert exc.value.line == 5
        assert f"{path}:5:" in str(exc.value)

    def test_json_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{\n  "name": "demo",\n  oops\n}\n')
        with pytest.raises(SpecError) as exc:
            load_spec(path)
        assert exc.value.line == 3

    def test_unknown_top_level_key_points_at_its_line(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(
            "name: demo\n"
            "leg: encode\n"
            "cells: 4\n"
            "axes:\n"
            "  clip: [cricket]\n"
        )
        with pytest.raises(SpecError) as exc:
            load_spec(path)
        assert "unknown top-level key 'cells'" in str(exc.value)
        assert exc.value.line == 3

    def test_missing_file_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            load_spec(tmp_path / "nope.yaml")

    def test_non_mapping_spec_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(SpecError, match="must be a mapping"):
            load_spec(path)

    def test_shipped_example_specs_validate(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parents[2] / "examples" / "bench"
        for name in ("kernel_workload.yaml", "loadtest_rates.yaml",
                     "fleet_objectives.json"):
            spec = load_spec(examples / name)
            assert spec.n_cells() >= 4


class TestPrecedence:
    def test_spec_settings_below_env(self, monkeypatch):
        spec = _encode_spec(settings={"jobs": 2})
        cell = spec.expand()[0]
        assert resolve_cell_settings(spec, cell).jobs == 2
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_cell_settings(spec, cell).jobs == 3

    def test_env_below_cli(self, monkeypatch):
        spec = _encode_spec(settings={"jobs": 2})
        cell = spec.expand()[0]
        monkeypatch.setenv("REPRO_JOBS", "3")
        resolved = resolve_cell_settings(spec, cell, {"jobs": 5})
        assert resolved.jobs == 5

    def test_axis_pin_beats_everything(self, monkeypatch):
        # An exported REPRO_KERNELS must not collapse the kernels axis.
        monkeypatch.setenv("REPRO_KERNELS", "vectorized")
        spec = _encode_spec()
        ref_cell, *_rest, vec_cell = spec.expand()
        assert resolve_cell_settings(spec, ref_cell).kernels == "reference"
        assert resolve_cell_settings(spec, vec_cell).kernels == "vectorized"

    def test_none_cli_overrides_fall_through(self):
        spec = _encode_spec(settings={"jobs": 2})
        cell = spec.expand()[0]
        assert resolve_cell_settings(spec, cell, {"jobs": None}).jobs == 2

    def test_every_spec_settable_field_is_accepted(self):
        # The settable set is the field table's, not a hand list (the
        # hand list used to reject fields added after it was written).
        spec = _encode_spec(settings={"cache_enabled": False})
        resolved = resolve_cell_settings(spec, spec.expand()[0])
        assert resolved.cache_enabled is False
        for field in ("retry", "bench_matrix", "bench_history", "shm", "bogus"):
            with pytest.raises(SpecError, match="unknown settings field"):
                _encode_spec(settings={field: "x"})

    @pytest.mark.parametrize("text, expected", [
        ("false", False), ("0", False), ("no", False),
        ("true", True), ("1", True), ("on", True),
    ])
    def test_boolean_settings_use_the_env_truthy_rule(self, text, expected):
        # bool("false") is True; the spec must read like REPRO_RESUME does.
        spec = _encode_spec(settings={"resume": text, "cache_enabled": text})
        resolved = resolve_cell_settings(spec, spec.expand()[0])
        assert resolved.resume is expected
        assert resolved.cache_enabled is expected


class TestRunMatrix:
    def test_encode_matrix_matches_direct_api_calls(self):
        from repro.api import encode

        spec = MatrixSpec(
            name="equiv",
            leg="encode",
            axes=(("kernels", ("reference", "vectorized")),
                  ("clip", ("cricket",))),
            params={"crf": 23},
        )
        payload = run_matrix(spec, quick=True)
        assert payload["schema"] == MATRIX_SCHEMA
        assert [c["status"] for c in payload["cells"]] == ["ok", "ok"]
        # Quality/size metrics are deterministic per backend, so the
        # matrix cells must match the equivalent flag-driven calls.
        for cell in payload["cells"]:
            Settings(kernels=cell["values"]["kernels"]).apply()
            try:
                direct = encode("cricket", crf=23, width=48, height=32,
                                n_frames=4)
            finally:
                Settings.reset()
            assert cell["metrics"]["psnr_db"] == pytest.approx(
                direct.psnr_db)
            assert cell["metrics"]["bitrate_kbps"] == pytest.approx(
                direct.bitrate_kbps)
            assert cell["metrics"]["encode_s"] > 0

    def test_failed_cell_is_isolated(self):
        spec = MatrixSpec(
            name="partial",
            leg="encode",
            axes=(("clip", ("cricket", "no-such-clip")),),
        )
        payload = run_matrix(spec, quick=True)
        by_id = {c["id"]: c for c in payload["cells"]}
        assert by_id["clip=cricket"]["status"] == "ok"
        failed = by_id["clip=no-such-clip"]
        assert failed["status"] == "failed"
        assert failed["error"] and "no-such-clip" in failed["error"]

    def test_run_does_not_leak_settings(self):
        from repro.codec import kernels as codec_kernels

        spec = MatrixSpec(
            name="leak",
            leg="encode",
            axes=(("kernels", ("reference",)), ("clip", ("cricket",))),
        )
        run_matrix(spec, quick=True)
        assert codec_kernels.active_backend() == codec_kernels.DEFAULT_BACKEND

    def test_payload_provenance_and_roundtrip(self, tmp_path):
        spec = MatrixSpec(
            name="prov", leg="encode", axes=(("clip", ("cricket",)),),
        )
        payload = run_matrix(spec, quick=True)
        assert isinstance(payload["rev"], str)
        assert isinstance(payload["dirty"], bool)
        assert payload["timestamp"] > 0
        path = write_matrix(payload, tmp_path / "matrix.json")
        assert load_matrix(path) == json.loads(path.read_text())
        assert load_matrix(path)["name"] == "prov"

    def test_load_matrix_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError, match=MATRIX_SCHEMA):
            load_matrix(path)


class TestRenderMatrix:
    def test_render_lists_cells_and_axes(self):
        spec = MatrixSpec(
            name="render", leg="encode",
            axes=(("kernels", ("reference", "vectorized")),
                  ("clip", ("cricket",))),
        )
        payload = run_matrix(spec, quick=True)
        text = render_matrix(payload)
        assert "matrix: render" in text
        assert "2 cells, 2 ok" in text
        assert "kernels" in text and "clip" in text
        assert "psnr_db" in text

    def test_render_flags_failures(self):
        spec = MatrixSpec(
            name="bad", leg="encode", axes=(("clip", ("no-such-clip",)),),
        )
        payload = run_matrix(spec, quick=True)
        text = render_matrix(payload)
        assert "1 failed" in text
        assert "FAILED" in text

"""Unit tests for repro.uarch.config, configs, and simulator."""

import pytest

from repro.trace.events import TraceStream
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from repro.uarch.config import CacheParams, MicroarchConfig
from repro.uarch.configs import CONFIG_NAMES, CONFIGS, baseline_config, config_by_name
from repro.uarch.simulator import simulate


class TestMicroarchConfig:
    def test_baseline_matches_table_iv(self):
        cfg = baseline_config()
        assert cfg.l1d.size_bytes == 32 * 1024
        assert cfg.l1i.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 256 * 1024
        assert cfg.l3.size_bytes == 8 * 1024 * 1024
        assert cfg.l4 is None
        assert cfg.itlb_entries == 128
        assert cfg.rob_size == 128
        assert cfg.rs_size == 36
        assert not cfg.issue_at_dispatch
        assert cfg.branch_predictor == "pentium_m"

    def test_fe_op_deltas(self):
        cfg = CONFIGS["fe_op"]
        assert cfg.l1i.size_bytes == 64 * 1024
        assert cfg.itlb_entries == 256
        assert cfg.l1d == baseline_config().l1d  # everything else unchanged

    def test_be_op1_deltas(self):
        cfg = CONFIGS["be_op1"]
        assert cfg.l1d.size_bytes == 64 * 1024
        assert cfg.l2.size_bytes == 512 * 1024
        assert cfg.l3.size_bytes == 4 * 1024 * 1024
        assert cfg.l4 is not None and cfg.l4.size_bytes == 16 * 1024 * 1024

    def test_be_op2_deltas(self):
        cfg = CONFIGS["be_op2"]
        assert cfg.rob_size == 256
        assert cfg.rs_size == 72
        assert cfg.issue_at_dispatch

    def test_bs_op_delta(self):
        assert CONFIGS["bs_op"].branch_predictor == "tage"

    def test_config_by_name_scaling(self):
        cfg = config_by_name("baseline", data_capacity_scale=16.0)
        assert cfg.effective_l1d().size_bytes == 2048
        assert cfg.effective_l2_data().size_bytes == 16 * 1024

    def test_unknown_config(self):
        with pytest.raises(KeyError):
            config_by_name("turbo")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            MicroarchConfig(data_capacity_scale=0.5)

    def test_describe_table_iv_row(self):
        desc = CONFIGS["be_op1"].describe()
        assert desc["L1d"] == "64K"
        assert desc["L4"] == "16M"
        assert CONFIGS["baseline"].describe()["L4"] == "none"

    def test_all_five_configs(self):
        assert CONFIG_NAMES == ("baseline", "fe_op", "be_op1", "be_op2", "bs_op")


class TestSimulator:
    def _trace(self, video_fixture):
        from repro.codec.encoder import encode
        from repro.codec.options import EncoderOptions

        program = build_program()
        tracer = RecordingTracer(program)
        encode(video_fixture, EncoderOptions(crf=23, refs=2, bframes=1), tracer=tracer)
        return tracer.stream, program

    def test_report_structure(self, tiny_video):
        stream, program = self._trace(tiny_video)
        report = simulate(stream, program, config_by_name("baseline", data_capacity_scale=16.0))
        assert report.cycles > 0
        assert report.instructions == stream.total_instructions
        assert 0 < report.ipc < 8
        td = report.topdown
        total = td.retiring + td.bad_speculation + td.frontend_bound + td.backend_bound
        assert total == pytest.approx(100.0)
        for key in ("l1d", "l2d", "l3d", "l1i", "branch"):
            assert report.mpki[key] >= 0
        assert report.seconds == pytest.approx(report.cycles / 3.5e9)

    def test_deterministic(self, tiny_video):
        stream, program = self._trace(tiny_video)
        cfg = config_by_name("baseline", data_capacity_scale=16.0)
        a = simulate(stream, program, cfg)
        b = simulate(stream, program, cfg)
        assert a.cycles == b.cycles
        assert a.mpki == b.mpki

    def test_fe_op_improves_frontend(self, tiny_video):
        stream, program = self._trace(tiny_video)
        base = simulate(stream, program, config_by_name("baseline", data_capacity_scale=16.0))
        fe = simulate(stream, program, config_by_name("fe_op", data_capacity_scale=16.0))
        assert fe.mpki["l1i"] < base.mpki["l1i"]
        assert fe.core.fe_cycles <= base.core.fe_cycles

    def test_be_op1_improves_caches(self, tiny_video):
        stream, program = self._trace(tiny_video)
        base = simulate(stream, program, config_by_name("baseline", data_capacity_scale=16.0))
        be = simulate(stream, program, config_by_name("be_op1", data_capacity_scale=16.0))
        assert be.mpki["l1d"] <= base.mpki["l1d"]
        assert be.cycles < base.cycles

    def test_bs_op_improves_branches(self, tiny_video):
        stream, program = self._trace(tiny_video)
        base = simulate(stream, program, config_by_name("baseline", data_capacity_scale=16.0))
        bs = simulate(stream, program, config_by_name("bs_op", data_capacity_scale=16.0))
        assert bs.mpki["branch"] < base.mpki["branch"]

    def test_invalid_frequency(self):
        with pytest.raises(ValueError, match="freq_hz"):
            simulate(TraceStream(), build_program(), baseline_config(), freq_hz=0)


class TestFrontendAttribution:
    def test_fe_second_level_fractions(self, tiny_video):
        """Paper §IV-A1: FE-bound slots are mostly decode (MITE/DSB)
        supply plus i-cache misses; the fractions must sum to one."""
        from repro.codec.encoder import encode
        from repro.codec.options import EncoderOptions

        program = build_program()
        tracer = RecordingTracer(program)
        encode(tiny_video, EncoderOptions(crf=23, refs=2, bframes=1), tracer=tracer)
        report = simulate(
            tracer.stream, program,
            config_by_name("baseline", data_capacity_scale=16.0),
        )
        fracs = [
            report.extra["fe_icache_frac"],
            report.extra["fe_itlb_frac"],
            report.extra["fe_decode_frac"],
        ]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert sum(fracs) == pytest.approx(1.0)
        # Decode (MITE/DSB) is a substantial FE component, as the paper
        # found (exact share varies with clip size and cache scaling).
        assert report.extra["fe_decode_frac"] > 0.1

    def test_vtune_report_shows_attribution(self, tiny_video):
        from repro.codec.encoder import encode
        from repro.codec.options import EncoderOptions
        from repro.profiling.vtune import topdown_report

        program = build_program()
        tracer = RecordingTracer(program)
        encode(tiny_video, EncoderOptions(crf=23, refs=1, bframes=0), tracer=tracer)
        report = simulate(
            tracer.stream, program,
            config_by_name("baseline", data_capacity_scale=16.0),
        )
        text = topdown_report(report)
        assert "MITE-DSB" in text

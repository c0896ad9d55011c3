"""Ablation benchmarks for µarch design choices (DESIGN.md §6).

- branch predictor choice vs bad-speculation slots,
- data-cache capacity scaling vs MPKI,
- AutoFDO layout vs the default interleaved layout (i-cache working set).
"""

import pytest

from repro._util import format_table
from repro.codec.encoder import Encoder
from repro.codec.options import EncoderOptions
from repro.optim.pipeline import build_autofdo, build_default
from repro.optim.profile import collect_profile
from repro.profiling.perf import profile_transcode
from repro.trace.recorder import RecordingTracer
from repro.uarch.configs import config_by_name
from repro.uarch.simulator import simulate
from repro.video.vbench import load_video


@pytest.fixture(scope="module")
def clip():
    return load_video("cricket", width=96, height=64, n_frames=8)


@pytest.fixture(scope="module")
def trace(clip):
    build = build_default()
    tracer = RecordingTracer(build.program)
    Encoder(EncoderOptions(crf=23, refs=2, bframes=1), tracer=tracer).encode(clip)
    return tracer.stream, build.program


@pytest.mark.paperfig
def test_ablation_branch_predictor(benchmark, trace, show):
    stream, program = trace

    def run():
        rows = []
        for predictor in ("static", "pentium_m", "tage"):
            cfg = config_by_name("baseline", data_capacity_scale=32.0).with_updates(
                branch_predictor=predictor
            )
            rep = simulate(stream, program, cfg)
            rows.append(
                [predictor, rep.mpki["branch"],
                 rep.topdown.bad_speculation, rep.cycles]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — branch predictor\n"
        + format_table(["predictor", "brMPKI", "BS%", "cycles"], rows)
    )
    by_name = {r[0]: r for r in rows}
    assert by_name["tage"][1] < by_name["pentium_m"][1] < by_name["static"][1]
    assert by_name["tage"][3] < by_name["static"][3]


@pytest.mark.paperfig
def test_ablation_cache_scaling(benchmark, trace, show):
    stream, program = trace

    def run():
        rows = []
        for scale_div in (8.0, 16.0, 32.0, 64.0):
            cfg = config_by_name("baseline", data_capacity_scale=scale_div)
            rep = simulate(stream, program, cfg)
            rows.append(
                [scale_div, rep.mpki["l1d"], rep.mpki["l2d"], rep.mpki["l3d"],
                 rep.topdown.backend_bound]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — data-capacity scaling divisor\n"
        + format_table(["scale", "L1d", "L2", "L3", "BE%"], rows)
    )
    l1 = [r[1] for r in rows]
    assert l1 == sorted(l1), "smaller caches must miss more"


@pytest.mark.paperfig
def test_ablation_fdo_layout(benchmark, clip, trace, show):
    stream, _default_program = trace

    def run():
        profile = collect_profile([stream])
        default = build_default()
        fdo = build_autofdo(profile)
        rows = []
        for build in (default, fdo):
            rep = profile_transcode(
                clip, EncoderOptions(crf=23, refs=2, bframes=1),
                program=build.program, data_capacity_scale=32.0,
            ).report
            rows.append(
                [build.name, build.program.layout.fetch_footprint_lines(),
                 rep.mpki["l1i"], rep.topdown.frontend_bound, rep.cycles]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — code layout (default vs AutoFDO)\n"
        + format_table(["layout", "fetch lines", "L1i MPKI", "FE%", "cycles"], rows)
    )
    default_row, fdo_row = rows
    assert fdo_row[1] < default_row[1], "FDO must shrink fetch footprints"
    assert fdo_row[2] < default_row[2], "FDO must cut L1i MPKI"
    assert fdo_row[4] < default_row[4], "FDO must save cycles"

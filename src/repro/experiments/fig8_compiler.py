"""Figure 8: AutoFDO and Graphite speedups per video.

Methodology mirrors §III-D1: AutoFDO trains on transcodes of a few
representative clips (profiles collected with the tracer — our ``perf``),
the binary is "recompiled" with the profile, and each video is then
measured over a set of (crf, refs, preset) combinations; the reported
number is the average speedup per video. Graphite is a plain recompile
with the polyhedral flags. Paper numbers: AutoFDO 4.66% average (max
5.2%), Graphite 4.42% average (max 4.87%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import format_table
from repro.codec.presets import preset_options
from repro.experiments import parallel
from repro.experiments.cache import content_key
from repro.experiments.runner import ExperimentScale, QUICK
from repro.obs import session as obs
from repro.optim import build_autofdo, build_graphite, collect_profile
from repro.optim.pipeline import Build
from repro.profiling.perf import profile_transcode, record_trace
from repro.video.vbench import load_video

__all__ = ["Fig8Result", "run", "PARAM_COMBOS"]

#: The (crf, refs, preset) combinations each video is measured over; the
#: paper averages 32 — the scale's ``fig8_combos`` selects a prefix.
PARAM_COMBOS: tuple[tuple[int, int, str], ...] = (
    (23, 3, "medium"),
    (35, 2, "veryfast"),
    (12, 4, "fast"),
    (28, 8, "slow"),
    (18, 1, "superfast"),
    (40, 2, "medium"),
    (8, 6, "slower"),
    (32, 3, "faster"),
    (5, 2, "fast"),
    (45, 1, "veryfast"),
    (26, 16, "veryslow"),
    (15, 3, "medium"),
    (21, 5, "slow"),
    (38, 2, "fast"),
    (10, 8, "slower"),
    (30, 1, "ultrafast"),
    (24, 2, "faster"),
    (33, 6, "slow"),
    (7, 3, "medium"),
    (42, 4, "fast"),
    (19, 2, "veryfast"),
    (27, 12, "veryslow"),
    (14, 1, "superfast"),
    (36, 3, "medium"),
    (22, 8, "slower"),
    (11, 2, "fast"),
    (47, 3, "veryfast"),
    (25, 4, "slow"),
    (17, 6, "slower"),
    (29, 2, "medium"),
    (9, 1, "faster"),
    (34, 16, "veryslow"),
)

#: Training clips for the AutoFDO profile (representative, per §III-D1).
_TRAIN_VIDEOS = ("cricket", "desktop", "holi")


@dataclass
class Fig8Result:
    videos: tuple[str, ...]
    autofdo_speedup_pct: dict[str, float]
    graphite_speedup_pct: dict[str, float]

    @property
    def autofdo_average(self) -> float:
        return float(np.mean(list(self.autofdo_speedup_pct.values())))

    @property
    def graphite_average(self) -> float:
        return float(np.mean(list(self.graphite_speedup_pct.values())))

    @property
    def autofdo_max(self) -> float:
        return float(max(self.autofdo_speedup_pct.values()))

    @property
    def graphite_max(self) -> float:
        return float(max(self.graphite_speedup_pct.values()))

    def render(self) -> str:
        rows = [
            [v, self.autofdo_speedup_pct[v], self.graphite_speedup_pct[v]]
            for v in self.videos
        ]
        rows.append(["AVERAGE", self.autofdo_average, self.graphite_average])
        table = format_table(["video", "AutoFDO %", "Graphite %"], rows)
        return (
            "Figure 8 — compiler-optimization speedups per video\n"
            + table
            + f"\n\npaper: AutoFDO avg 4.66% (max 5.2%); "
            f"Graphite avg 4.42% (max 4.87%)\n"
            f"ours : AutoFDO avg {self.autofdo_average:.2f}% "
            f"(max {self.autofdo_max:.2f}%); "
            f"Graphite avg {self.graphite_average:.2f}% "
            f"(max {self.graphite_max:.2f}%)"
        )


def _train_profile(scale: ExperimentScale):
    """Collect the AutoFDO training profile (the ``perf record`` step)."""
    streams = []
    for name in _TRAIN_VIDEOS:
        video = load_video(
            name, width=scale.width, height=scale.height,
            n_frames=max(scale.n_frames // 2, 4),
        )
        # Traced on the default program: the stock (-O2) build's.
        _, stream, _ = record_trace(
            video, preset_options("medium", crf=23, refs=3)
        )
        streams.append(stream)
    return collect_profile(streams)


@dataclass(frozen=True)
class _VideoTask:
    """One video's measurement job, shippable to a worker process."""

    scale: ExperimentScale
    video: str
    combos: tuple[tuple[int, int, str], ...]
    fdo_build: Build
    graphite_build: Build


def _video_key(scale: ExperimentScale, video: str,
               combos: tuple[tuple[int, int, str], ...]) -> str:
    return content_key(
        "fig8",
        video={
            "name": video,
            "width": scale.width,
            "height": scale.height,
            "n_frames": scale.n_frames,
        },
        combos=[list(c) for c in combos],
        train_videos=list(_TRAIN_VIDEOS),
        train_n_frames=max(scale.n_frames // 2, 4),
        sim={"data_capacity_scale": scale.data_capacity_scale},
    )


def _measure_video(task: _VideoTask) -> tuple[str, float, float]:
    """Average AutoFDO/Graphite speedups for one video over the combos."""
    scale = task.scale
    video = load_video(
        task.video, width=scale.width, height=scale.height,
        n_frames=scale.n_frames,
    )
    fdo_speedups = []
    g_speedups = []
    for crf, refs, preset in task.combos:
        opts = preset_options(preset, crf=crf, refs=refs)
        base = profile_transcode(
            video, opts, data_capacity_scale=scale.data_capacity_scale
        )
        fdo = profile_transcode(
            video, opts, program=task.fdo_build.program,
            data_capacity_scale=scale.data_capacity_scale,
        )
        gr = profile_transcode(
            video, opts, program=task.graphite_build.program,
            loop_opts=task.graphite_build.loop_opts,
            data_capacity_scale=scale.data_capacity_scale,
        )
        fdo_speedups.append((base.report.cycles / fdo.report.cycles - 1) * 100)
        g_speedups.append((base.report.cycles / gr.report.cycles - 1) * 100)
    return task.video, float(np.mean(fdo_speedups)), float(np.mean(g_speedups))


def run(scale: ExperimentScale = QUICK) -> Fig8Result:
    combos = PARAM_COMBOS[: max(scale.fig8_combos, 1)]
    videos = scale.fig8_videos if scale.fig8_videos else scale.videos
    cache = parallel.default_cache()

    autofdo: dict[str, float] = {}
    graphite: dict[str, float] = {}
    missing: list[str] = []
    for name in videos:
        payload = cache.get_value(_video_key(scale, name, combos)) if cache else None
        if isinstance(payload, dict) and {"autofdo", "graphite"} <= set(payload):
            obs.inc("fig8.cache_hits")
            autofdo[name] = float(payload["autofdo"])  # type: ignore[arg-type]
            graphite[name] = float(payload["graphite"])  # type: ignore[arg-type]
        else:
            missing.append(name)

    if missing:
        # Training (and the Graphite recompile) only happen on a miss, so
        # a cache-warm run does zero encodes.
        fdo_build = build_autofdo(_train_profile(scale))
        graphite_build = build_graphite()
        tasks = [
            _VideoTask(
                scale=scale, video=name, combos=combos,
                fdo_build=fdo_build, graphite_build=graphite_build,
            )
            for name in missing
        ]
        for name, fdo_pct, g_pct in parallel.fan_out(
            _measure_video, tasks, label="fig8"
        ):
            autofdo[name] = fdo_pct
            graphite[name] = g_pct
            if cache is not None:
                cache.put_value(
                    _video_key(scale, name, combos),
                    {"autofdo": fdo_pct, "graphite": g_pct},
                    kind="fig8",
                )
    return Fig8Result(
        videos=tuple(videos),
        autofdo_speedup_pct=autofdo,
        graphite_speedup_pct=graphite,
    )

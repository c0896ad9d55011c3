"""Tables I-IV: the paper's static/config tables, regenerated from code.

Table I additionally *measures* the entropy of our synthetic stand-ins so
the report shows that the complexity ordering of the catalog is realized
by the generators, not merely asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import format_table
from repro.codec.presets import PRESET_NAMES, PRESETS
from repro.experiments.cache import content_key
from repro.experiments.runner import CachedValues, ExperimentScale, QUICK
from repro.scheduling.task import TABLE_III_TASKS
from repro.uarch.configs import CONFIG_NAMES, CONFIGS
from repro.video.metrics import estimate_entropy
from repro.video.vbench import VBENCH_VIDEOS, load_video

__all__ = ["Tab1Result", "tab1", "tab2", "tab3", "tab4"]


def _entropy(video: dict) -> float:
    """Measured entropy of one synthetic stand-in."""
    clip = load_video(video["name"], width=video["width"],
                      height=video["height"], n_frames=video["n_frames"])
    return float(estimate_entropy(clip))


def _stored_entropy(value: object) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"an entropy must be a number, got {value!r:.80}")
    return float(value)  # type: ignore[arg-type]


#: Table I's cache-then-compute path, one unit per clip.
_ENTROPIES = CachedValues(
    label="tab1", kind="entropy", hits="tab1.entropy_cache_hits",
    key=lambda video: content_key("entropy", video=video),
    cell=lambda video: (video["name"], None, None, None), check=_stored_entropy,
)


@dataclass
class Tab1Result:
    rows: list[list[object]]
    measured_entropy: dict[str, float]

    def render(self) -> str:
        table = format_table(
            ["Full Name", "Short Name", "Resolution", "FPS",
             "Entropy (paper)", "Entropy (measured)"],
            self.rows,
            floatfmt=".2f",
        )
        return "Table I — vbench videos info\n" + table


def tab1(scale: ExperimentScale = QUICK) -> Tab1Result:
    videos = [
        {"name": info.short_name, "width": scale.width,
         "height": scale.height, "n_frames": scale.n_frames}
        for info in VBENCH_VIDEOS
    ]
    # In-process: a unit is ~40 ms, less than a worker pool costs.
    entropies = _ENTROPIES(_entropy, videos, jobs=1)
    rows = [
        [info.full_name, info.short_name, info.resolution_label, info.fps,
         info.entropy, m]
        for info, m in zip(VBENCH_VIDEOS, entropies)
    ]
    measured = {info.short_name: m for info, m in zip(VBENCH_VIDEOS, entropies)}
    return Tab1Result(rows=rows, measured_entropy=measured)


def tab2() -> str:
    options = (
        "aq_mode", "b_adapt", "bframes", "deblock", "me", "merange",
        "partitions", "refs", "scenecut", "subme", "trellis",
    )
    rows = []
    for option in options:
        rows.append([option] + [str(PRESETS[p][option]) for p in PRESET_NAMES])
    table = format_table(["Option"] + list(PRESET_NAMES), rows)
    return "Table II — selection of the important options for different presets\n" + table


def tab3() -> str:
    rows = [
        [t.task_id, t.video, t.crf, t.refs, t.preset] for t in TABLE_III_TASKS
    ]
    table = format_table(["Task#", "Video", "crf", "refs", "Preset"], rows)
    return "Table III — transcoding parameters used for scheduler simulation\n" + table


def tab4() -> str:
    keys = (
        "L1d", "L1i", "L2", "L3", "L4", "itlb", "ROB", "RS",
        "issue_at_dispatch", "branch_predictor",
    )
    rows = []
    described = {name: CONFIGS[name].describe() for name in CONFIG_NAMES}
    for key in keys:
        rows.append([key] + [str(described[n][key]) for n in CONFIG_NAMES])
    table = format_table(["Param"] + list(CONFIG_NAMES), rows)
    return "Table IV — microarchitectural configurations for simulation\n" + table

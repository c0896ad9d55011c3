"""Sweep engine: parameter grids, proxy scaling, and result caching.

The paper's §III-C sweeps are expensive (816 crf x refs combinations);
this runner executes them at configurable proxy scale through a single
cache-then-compute path with three layers:

1. an in-process memo, so the figure/benchmark modules that share a
   sweep (Fig 3, 4, 5 all use the crf x refs grid) only pay for it once
   per session;
2. an optional persistent :class:`~repro.experiments.cache.ResultCache`
   keyed by a content hash of (repro version, options, video spec,
   simulation knobs, µarch config), so repeat runs across processes are
   near-free;
3. a fault-tolerant :func:`~repro.experiments.parallel.run_tasks`
   fan-out of the remaining misses across worker processes when the
   engine is configured with more than one job.

Every grid method funnels through :meth:`SweepRunner.run_points`, which
is what makes serial and parallel execution provably identical: both
paths run :func:`compute_point` on the same specs in the same order.

Fault tolerance: per-cell work retries under the engine's
:class:`~repro.resilience.retry.RetryPolicy`; each success is stored to
the memo and the persistent cache the moment it streams in, so an
interrupted campaign — crashed worker pool, SIGKILLed parent,
permanently-failing cell — keeps its completed cells. The result cache
is the only durable store of a finished cell: resuming is re-running the
same command with the same ``--cache-dir`` (only the missing cells
recompute), and a run without a persistent cache is not resumable. Cells
that exhaust their retry budget are summarized in a
:class:`SweepFailure` (the CLI reports them in ``run.json`` and exits
nonzero) instead of aborting the sweep at the first error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.codec.options import EncoderOptions
from repro.codec.presets import preset_options
from repro.experiments import parallel
from repro.experiments.cache import FixedComponentKey, ResultCache, SweepRecord
from repro.obs import session as obs
from repro.profiling.perf import profile_transcode
from repro.resilience.faults import InjectedFault, fault_point
from repro.uarch.configs import baseline_config
from repro.video.vbench import cached_video

__all__ = [
    "CellFailure",
    "ExperimentScale",
    "PointSpec",
    "SweepFailure",
    "SweepRecord",
    "SweepRunner",
    "QUICK",
    "MEDIUM",
    "FULL",
    "compute_point",
    "shared_runner",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Proxy sizing knobs for every experiment."""

    name: str = "quick"
    width: int = 112
    height: int = 64
    n_frames: int = 12
    crf_values: tuple[int, ...] = (1, 10, 23, 32, 40, 51)
    refs_values: tuple[int, ...] = (1, 2, 4, 8)
    sweep_video: str = "cricket"
    videos: tuple[str, ...] = (
        "desktop",
        "presentation",
        "bike",
        "funny",
        "cricket",
        "house",
        "game1",
        "game2",
        "girl",
        "chicken",
        "game3",
        "cat",
        "holi",
        "landscape",
        "hall",
        "bbb",
    )
    data_capacity_scale: float = 48.0
    sample: int = 1
    # Parameter combinations per video for the Fig. 8 compiler study
    # (the paper averages 32 combos; quick mode uses fewer).
    fig8_combos: int = 4
    fig8_videos: tuple[str, ...] = ()  # empty = all of `videos`

    def with_updates(self, **changes: object) -> "ExperimentScale":
        """Return a copy with the given fields replaced.

        Unknown field names raise ``ValueError`` up front (``replace``
        alone only fails at construction time with a less helpful
        ``TypeError``)."""
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(changes) - valid)
        if unknown:
            raise ValueError(
                f"unknown ExperimentScale field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        return replace(self, **changes)  # type: ignore[arg-type]


QUICK = ExperimentScale()

MEDIUM = ExperimentScale(
    name="medium",
    width=160,
    height=96,
    n_frames=16,
    crf_values=(1, 5, 10, 16, 23, 28, 32, 36, 40, 45, 51),
    refs_values=(1, 2, 3, 4, 6, 8, 12, 16),
    fig8_combos=8,
)

FULL = ExperimentScale(
    name="full",
    width=160,
    height=96,
    n_frames=24,
    crf_values=tuple(range(1, 52)),
    refs_values=tuple(range(1, 17)),
    fig8_combos=32,
)

SCALES = {"quick": QUICK, "medium": MEDIUM, "full": FULL}


# ----------------------------------------------------------------------
# One sweep point: spec and compute function.
# ----------------------------------------------------------------------

#: Every sweep cell is keyed under the baseline µarch configuration; its
#: part of the key's canonical text is serialized once, here.
_SWEEP_KEY = FixedComponentKey("sweep", "config", baseline_config())


@dataclass(frozen=True)
class PointSpec:
    """Everything that determines one profiled sweep point."""

    scale: ExperimentScale
    video: str
    crf: int
    refs: int
    preset: str
    options: EncoderOptions

    def memo_key(self) -> tuple:
        return (self.video, self.crf, self.refs, self.preset, self.options)

    def cache_key(self) -> str:
        """Content hash over everything that can change the result:
        ``content_key("sweep", video=..., options=..., sim=...,
        config=baseline_config())``, byte for byte."""
        scale = self.scale
        return _SWEEP_KEY(
            video={
                "name": self.video,
                "width": scale.width,
                "height": scale.height,
                "n_frames": scale.n_frames,
            },
            options=self.options,
            sim={
                "sample": scale.sample,
                "data_capacity_scale": scale.data_capacity_scale,
            },
        )

    def describes(self, record: SweepRecord) -> bool:
        """Is ``record`` this cell's? Guards the cache restore against
        a colliding or stale entry."""
        return (record.video, record.crf, record.refs, record.preset) == (
            self.video, self.crf, self.refs, self.preset
        )

    def load_video(self):
        """The spec's clip at the scale's proxy geometry, memoized."""
        scale = self.scale
        return cached_video(
            self.video,
            width=scale.width,
            height=scale.height,
            n_frames=scale.n_frames,
        )


def compute_point(spec: PointSpec) -> SweepRecord:
    """Profile one sweep point from scratch.

    Module-level (not a method) so the parallel engine can ship it to
    worker processes; serial and parallel execution share this exact
    code path.
    """
    fault_point(
        "sweep.compute",
        detail=f"{spec.video}:crf={spec.crf}:refs={spec.refs}:preset={spec.preset}",
    )
    obs.inc("sweep.profiles")
    with obs.span(
        "sweep.point",
        video=spec.video,
        crf=spec.crf,
        refs=spec.refs,
        preset=spec.preset,
    ):
        result = profile_transcode(
            spec.load_video(),
            spec.options,
            sample=spec.scale.sample,
            data_capacity_scale=spec.scale.data_capacity_scale,
        )
    return SweepRecord(
        video=spec.video,
        crf=spec.crf,
        refs=spec.refs,
        preset=spec.preset,
        counters=result.counters,
    )


# ----------------------------------------------------------------------
# Partial-result reporting.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellFailure:
    """One sweep cell that exhausted its retry budget."""

    video: str
    crf: int
    refs: int
    preset: str
    key: str          # the cell's cache key (what a re-run recomputes)
    error: str        # exception class name
    message: str
    attempts: int

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


class SweepFailure(RuntimeError):
    """A sweep finished with some cells permanently failed.

    Raised *after* every computable cell completed and was stored, so
    a re-run against the same result cache only re-executes the failed
    cells. The CLI turns this into a partial-result ``run.json`` (``status:
    "partial"`` plus a ``failures`` list) and a nonzero exit code.
    """

    def __init__(
        self,
        label: str,
        failures: list[CellFailure],
        *,
        completed: int,
        total: int,
    ) -> None:
        self.label = label
        self.failures = failures
        self.completed = completed
        self.total = total
        super().__init__(
            f"sweep {label!r}: {len(failures)}/{total} cells failed "
            f"({completed} completed)"
        )

    def failure_payloads(self) -> list[dict[str, object]]:
        return [f.as_dict() for f in self.failures]


# ----------------------------------------------------------------------
# The runner.
# ----------------------------------------------------------------------

class SweepRunner:
    """Executes profiled transcodes for one scale via the cache-then-
    compute path (memo -> persistent cache -> serial/parallel compute).

    ``jobs``/``cache`` left at ``None`` track the process-wide engine
    configuration (:func:`repro.experiments.parallel.configure`) at call
    time; pass ``cache=False`` to disable the persistent layer for this
    runner regardless of the engine default.
    """

    def __init__(
        self,
        scale: ExperimentScale,
        *,
        jobs: int | None = None,
        cache: ResultCache | bool | None = None,
    ) -> None:
        self.scale = scale
        self._jobs = jobs
        self._cache = cache
        self._run_cache: dict[tuple, SweepRecord] = {}

    @property
    def jobs(self) -> int:
        if self._jobs is None:
            return parallel.default_jobs()
        return max(self._jobs, 1)

    def cache(self) -> ResultCache | None:
        if self._cache is False:
            return None
        if self._cache is None:
            return parallel.default_cache()
        return self._cache  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _spec(
        self,
        video: str,
        *,
        crf: int,
        refs: int,
        preset: str = "medium",
        options: EncoderOptions | None = None,
    ) -> PointSpec:
        opts = (
            options
            if options is not None
            else preset_options(preset, crf=crf, refs=refs)
        )
        return PointSpec(
            scale=self.scale,
            video=video,
            crf=crf,
            refs=refs,
            preset=preset,
            options=opts,
        )

    def _lookup(self, spec: PointSpec, memo_key: tuple) -> SweepRecord | None:
        """Memo hit, else persistent-cache hit (promoted to the memo);
        ``memo_key`` is ``spec.memo_key()``."""
        record = self._run_cache.get(memo_key)
        if record is not None:
            obs.inc("sweep.cache_hits")
            return record
        disk = self.cache()
        if disk is not None:
            record = disk.get_record(spec.cache_key())
            if record is not None and spec.describes(record):
                obs.inc("sweep.disk_hits")
                self._run_cache[memo_key] = record
                return record
        return None

    def _store(self, spec: PointSpec, record: SweepRecord) -> None:
        self._run_cache[spec.memo_key()] = record
        disk = self.cache()
        if disk is not None:
            try:
                disk.put_record(spec.cache_key(), record)
            except (OSError, TimeoutError, ConnectionError, InjectedFault):
                # A cell we failed to persist is still a computed cell;
                # degrade to memo-only rather than failing the sweep.
                obs.inc("cache.write_giveups")
                obs.inc("sweep.disk_write_failures")
            else:
                obs.inc("sweep.disk_writes")

    def profile(
        self,
        video: str,
        *,
        crf: int,
        refs: int,
        preset: str = "medium",
        options: EncoderOptions | None = None,
    ) -> SweepRecord:
        """Profile one (video, crf, refs, preset) point, cached."""
        return self.run_points(
            [self._spec(video, crf=crf, refs=refs, preset=preset, options=options)]
        )[0]

    def run_points(
        self, specs: list[PointSpec], *, label: str = "sweep"
    ) -> list[SweepRecord]:
        """Resolve every spec through cache-then-compute, in order.

        Misses are computed serially in-process under ``--jobs 1``, and
        sharded across worker processes otherwise (results merge back in
        spec order, so both paths return identical lists). Each miss is
        retried under the engine's retry policy and stored (memo, disk
        cache) the moment it completes, so a re-run against the same
        cache recomputes only what is missing. Cells that exhaust their
        retries raise :class:`SweepFailure` *after* every other cell
        finished.
        """
        keys = [spec.memo_key() for spec in specs]
        resolved: dict[tuple, SweepRecord] = {}
        misses: list[PointSpec] = []
        seen: set[tuple] = set()
        for spec, key in zip(specs, keys):
            if key in seen:
                continue
            seen.add(key)
            record = self._lookup(spec, key)
            if record is not None:
                resolved[key] = record
            else:
                misses.append(spec)
        if misses:
            self._run_misses(misses, resolved, total=len(seen), label=label)
        return [resolved[key] for key in keys]

    def _run_misses(
        self,
        misses: list[PointSpec],
        resolved: dict[tuple, SweepRecord],
        *,
        total: int,
        label: str,
    ) -> None:
        if self.jobs > 1:
            # Warm the clip memo before the pool exists: forked
            # workers inherit the planes copy-on-write and
            # synthesize nothing (spawned ones load their own).
            for spec in misses:
                spec.load_video()
        outcomes = parallel.run_tasks(
            compute_point,
            misses,
            jobs=self.jobs,
            label=label,
            on_result=lambda index, record: self._store(misses[index], record),
        )
        failures: list[CellFailure] = []
        for outcome in outcomes:
            spec = misses[outcome.index]
            if outcome.error is None:
                resolved[spec.memo_key()] = outcome.result  # type: ignore[assignment]
                continue
            failures.append(
                CellFailure(
                    video=spec.video,
                    crf=spec.crf,
                    refs=spec.refs,
                    preset=spec.preset,
                    key=spec.cache_key(),
                    error=type(outcome.error).__name__,
                    message=str(outcome.error),
                    attempts=outcome.attempts,
                )
            )
        if failures:
            obs.inc("sweep.failed_cells", len(failures))
            raise SweepFailure(
                label, failures, completed=total - len(failures), total=total
            )

    # ------------------------------------------------------------------
    def crf_refs_sweep(self, video: str | None = None) -> list[SweepRecord]:
        """The Fig 3/4/5 grid: every (crf, refs) combination."""
        name = video if video is not None else self.scale.sweep_video
        return self.run_points(
            [
                self._spec(name, crf=crf, refs=refs)
                for crf in self.scale.crf_values
                for refs in self.scale.refs_values
            ],
            label="crf_refs",
        )

    def preset_sweep(self, video: str | None = None) -> list[SweepRecord]:
        """The Fig 6 series: all ten presets at crf=23, refs=3."""
        from repro.codec.presets import PRESET_NAMES

        name = video if video is not None else self.scale.sweep_video
        return self.run_points(
            [
                self._spec(
                    name,
                    crf=23,
                    refs=3,
                    preset=preset,
                    options=preset_options(preset, crf=23, refs=3),
                )
                for preset in PRESET_NAMES
            ],
            label="presets",
        )

    def video_sweep(self) -> list[SweepRecord]:
        """The Fig 7 series: every video, medium preset, crf=23 refs=3."""
        return self.run_points(
            [
                self._spec(name, crf=23, refs=3, preset="medium")
                for name in self.scale.videos
            ],
            label="videos",
        )


_RUNNERS: dict[str, SweepRunner] = {}


def shared_runner(scale: ExperimentScale) -> SweepRunner:
    """Process-wide runner per scale so figures share sweep results."""
    key = scale.name
    runner = _RUNNERS.get(key)
    if runner is None or runner.scale != scale:
        runner = SweepRunner(scale)
        _RUNNERS[key] = runner
    return runner

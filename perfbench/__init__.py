"""Whole-pipeline benchmark of the repro transcoding stack, measured from outside.

Four workloads (``transcode_ladder``, ``profile_grid``, ``fleet_replay``,
``sweep_warm``) drive the pipeline video -> codec -> trace -> uarch ->
profiling -> experiments/service through the layers' public functions
and report host wall time, never simulated time. ``perfbench/run.py`` is
the single-run entry point named in ``/BENCHMARK.json``;
``python -m perfbench`` runs the interleaved suite and
``python -m perfbench.compare`` judges two suite outputs. See
``perfbench/README.md`` for the metric glossary and the run protocol.
"""

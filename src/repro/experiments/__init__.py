"""Experiment harness: one module per table/figure of the paper.

Every experiment exposes ``run(scale) -> <Result>`` where the result
carries the raw data (for tests and benchmarks) and ``render() -> str``
produces the same rows/series the paper reports. The
:class:`~repro.experiments.runner.ExperimentScale` controls proxy sizing:
``quick`` (default) finishes in tens of seconds, ``full`` approaches the
paper's 816-combination grids.

Import each name from the submodule that owns it; the package
re-exports nothing. The experiment registry ``repro list`` prints lives
in :mod:`repro.cli`.
"""

__all__: list[str] = []

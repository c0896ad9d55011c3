"""Smart transcoding-task scheduling across µarch configurations (§III-D2).

Streaming providers run fleets with heterogeneous server generations; the
paper shows that characterization-driven placement of transcoding tasks
onto the configuration that relieves each task's dominant bottleneck
recovers most of the oracle scheduler's benefit. This package implements
the paper's case study: the four Table III tasks, the four Table IV
configuration variants, and the random / smart / best schedulers of
Figure 9.

Import each name from the submodule that owns it (``task``,
``affinity``, ``schedulers``, ``casestudy``); the package re-exports
nothing, so importing a task does not load the assignment
solver. The solver (``affinity.solve_assignment``) is a pure-Python
port of scipy's ``linear_sum_assignment``: the package needs NumPy
alone.
"""

__all__: list[str] = []

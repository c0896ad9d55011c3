"""Sniper-style mechanistic CPU microarchitecture simulator.

Consumes the instruction/memory/branch trace produced by
:mod:`repro.trace` and produces cycle counts, Top-down pipeline-slot
breakdowns (retiring / bad-speculation / front-end / back-end, per Yasin's
Top-down method the paper uses via VTune), cache/branch MPKI, and
resource-stall counters (ROB / RS / store buffer) — the full counter
surface the paper reports.

The five Table IV configurations (``baseline`` a.k.a. gainestown,
``fe_op``, ``be_op1``, ``be_op2``, ``bs_op``) ship in
:mod:`repro.uarch.configs`.

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []

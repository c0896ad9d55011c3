"""Execution tracing: the bridge between the codec and the µarch simulator.

The codec is a Python program, so we cannot profile its *own* machine code
and learn anything about x264. Instead, every codec kernel (SAD, DCT,
quantization, entropy coding, ...) is described once in
:mod:`repro.trace.kernels` — its per-iteration instruction mix, loop nest,
and static code footprint — and the encoder reports each kernel invocation
to a :class:`repro.trace.recorder.Tracer` together with the *actual* data
addresses it touched and the *actual* outcomes of its data-dependent
branches. The result is an instruction/memory/branch trace equivalent to
what a binary-instrumentation tool would capture from a native encoder,
driven by the real per-parameter behaviour of this one.
"""

from repro.trace.events import (
    BranchEvent,
    KernelEvent,
    MemoryEvent,
    TraceColumns,
    TraceStream,
)
from repro.trace.kernels import KERNELS, kernel_spec
from repro.trace.program import CodeLayout, Kernel, Program
from repro.trace.recorder import NullTracer, RecordingTracer, Tracer

__all__ = [
    "Kernel",
    "Program",
    "CodeLayout",
    "KERNELS",
    "kernel_spec",
    "TraceStream",
    "TraceColumns",
    "KernelEvent",
    "MemoryEvent",
    "BranchEvent",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
]

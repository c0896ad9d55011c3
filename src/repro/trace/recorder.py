"""Trace recorders: the interface the codec reports its execution through.

:class:`NullTracer` is a zero-cost sink for plain transcoding.
:class:`RecordingTracer` builds a :class:`~repro.trace.events.TraceStream`
for the µarch simulator: exact instruction accounting plus (optionally
sampled) memory and branch event streams.

The contract between the codec and a recorder: :meth:`Tracer.kernel` only
checks its arguments and appends — the arrays it is handed are referenced,
not copied, so the codec must not write to them afterwards — and
:meth:`Tracer.flush`, which the codec calls once when an encode or decode
ends, seals what was appended into the stream's columns (see
:mod:`repro.trace.events`). Reading :attr:`RecordingTracer.stream` seals
too, so a trace is never seen half built.

:class:`AddressMap` gives the encoder a consistent virtual address space
for its planes and buffers, so data addresses behave like a real heap
(distinct pages per buffer, realistic strides) and ``refs`` growth
enlarges the live working set exactly as it does in FFmpeg.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from repro.trace.events import TraceRows, TraceStream, checked_addrs
from repro.trace.program import InstrMix, Kernel, Program

__all__ = ["Tracer", "NullTracer", "RecordingTracer", "AddressMap"]

_PAGE = 4096


class AddressMap:
    """Bump allocator for the encoder's simulated heap."""

    HEAP_BASE = 0x1000_0000

    def __init__(self) -> None:
        self._cursor = self.HEAP_BASE
        self._regions: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, n_bytes: int) -> int:
        """Allocate (or return the existing) page-aligned region."""
        if name in self._regions:
            base, size = self._regions[name]
            if size < n_bytes:
                raise ValueError(
                    f"region {name!r} reallocated larger ({size} -> {n_bytes})"
                )
            return base
        size = max(int(n_bytes), 1)
        size = (size + _PAGE - 1) // _PAGE * _PAGE
        base = self._cursor
        self._cursor += size + _PAGE  # guard page between regions
        self._regions[name] = (base, size)
        return base

    def region(self, name: str) -> tuple[int, int]:
        return self._regions[name]

    @property
    def bytes_allocated(self) -> int:
        return self._cursor - self.HEAP_BASE


class Tracer:
    """No-op base tracer; also documents the recording interface.

    ``kernel`` is the single entry point the codec calls: one invocation
    of ``name`` executing ``iters`` innermost iterations, touching the
    given byte addresses and resolving the given data-dependent branch
    outcome arrays (keyed by site tag). Loop-control branches are derived
    from the kernel's instruction mix and need not be passed. ``flush``
    marks the end of an encode or decode.
    """

    enabled = False

    def begin_frame(self, frame_type: str, index: int) -> None:
        pass

    def kernel(
        self,
        name: str,
        iters: float = 1.0,
        *,
        reads: np.ndarray | None = None,
        writes: np.ndarray | None = None,
        branches: dict[str, np.ndarray] | None = None,
    ) -> None:
        pass

    def flush(self) -> None:
        pass


class NullTracer(Tracer):
    """Discards everything (used for plain, untraced transcodes)."""


class RecordingTracer(Tracer):
    """Builds a :class:`TraceStream` from codec callbacks.

    Parameters
    ----------
    program:
        The static program model (kernels + code layout).
    sample:
        Invocation-level sampling rate for memory/branch/i-fetch events:
        1 records everything; N records every Nth invocation per kernel
        with weight N. Instruction counts are always exact.
    """

    enabled = True

    def __init__(self, program: Program, *, sample: int = 1) -> None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.program = program
        self.sample = int(sample)
        self._weight = float(self.sample)
        self._n_frames = 0
        # Every invocation, sampled or not: the exact totals come from these.
        self._call_ids: list[int] = []
        self._call_iters: list[float] = []
        self._specs: list[Kernel] = []  # per kernel id
        self._invocations: list[int] = []  # per kernel id
        self._rows = TraceRows()  # the sampled invocations' events
        self._n_events = 0
        self._stream: TraceStream | None = None

    def begin_frame(self, frame_type: str, index: int) -> None:
        self._n_frames += 1
        self._stream = None

    def kernel(
        self,
        name: str,
        iters: float = 1.0,
        *,
        reads: np.ndarray | None = None,
        writes: np.ndarray | None = None,
        branches: dict[str, np.ndarray] | None = None,
    ) -> None:
        if iters < 0:
            raise ValueError(f"iters must be >= 0, got {iters}")
        rows = self._rows
        kid = rows.kernel_ids.get(name)
        if kid is None:
            self._specs.append(self.program.kernel(name))  # KeyError if unknown
            kid = rows.kernel_id(name)
            self._invocations.append(0)
        self._stream = None
        self._call_ids.append(kid)
        self._call_iters.append(iters)
        count = self._invocations[kid]
        self._invocations[kid] = count + 1
        if count % self.sample:
            return
        # Checked here, with the codec's call on the stack, not at seal time.
        if reads is not None:
            reads = checked_addrs(reads)
        if writes is not None:
            writes = checked_addrs(writes)
        weight = self._weight
        pos = self._n_events
        # Instruction-side behaviour is derived from the kernel events at
        # simulation time (analytic i-cache model over the layout's fetch
        # footprints), so no explicit i-fetch address events are stored.
        rows.kernel_rows.append((kid, iters, weight, pos))
        pos += 1
        if reads is not None and reads.size:
            rows.addrs.append(reads)
            rows.memory_rows.append((kid, True, weight, pos))
            pos += 1
        if writes is not None and writes.size:
            rows.addrs.append(writes)
            rows.memory_rows.append((kid, False, weight, pos))
            pos += 1
        if branches:
            for tag, outcomes in branches.items():
                out = np.asarray(outcomes, dtype=bool)
                if out.size:
                    rows.outcomes.append(out)
                    rows.branch_rows.append(
                        (rows.site_id(f"{name}:{tag}"), weight, pos)
                    )
                    pos += 1
        self._n_events = pos

    def flush(self) -> None:
        """Seal what has been recorded so far into :attr:`stream`."""
        if self._stream is None:
            self._stream = self._seal()

    @property
    def stream(self) -> TraceStream:
        """The trace of everything recorded so far. Further ``kernel`` /
        ``begin_frame`` calls do not touch a stream already handed out;
        the next read returns a new one."""
        self.flush()
        return self._stream

    def _seal(self) -> TraceStream:
        names, specs = tuple(self._rows.kernel_ids), self._specs
        ids = np.array(self._call_ids, dtype=np.intp)
        iters = np.array(self._call_iters, dtype=np.float64)
        per_iter = np.array([astuple(k.instr_mix) for k in specs]).reshape(-1, 5)
        per_call = np.array([astuple(k.call_overhead) for k in specs]).reshape(-1, 5)
        # One row per invocation: its mix, exactly as
        # ``instr_mix.scaled(iters) + call_overhead`` computes it ...
        mixes = per_iter[ids] * iters[:, None] + per_call[ids]
        # ... folded strictly left to right, as a ``+=`` per call would.
        by_kernel = {}
        for kid, name in enumerate(names):
            rows = mixes[ids == kid]
            by_kernel[name] = InstrMix(*np.add.accumulate(rows, axis=0)[-1].tolist())
        total = np.add.accumulate(mixes, axis=0)[-1:].tolist()
        instr = InstrMix(*total[0]) if total else InstrMix()
        return TraceStream(
            self._rows.build(),
            instr=instr,
            instr_by_kernel=by_kernel,
            kernel_calls=dict(zip(names, self._invocations)),
            n_frames=self._n_frames,
            # Every load and store is data traffic: the same running sums.
            data_reads=instr.load,
            data_writes=instr.store,
        )

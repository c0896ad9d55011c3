"""Trace recorders: the interface the codec reports its execution through.

:class:`NullTracer` is a zero-cost sink for plain transcoding.
:class:`RecordingTracer` builds a :class:`~repro.trace.events.TraceStream`
for the µarch simulator: exact instruction accounting plus (optionally
sampled) memory and branch event streams.

The contract between the codec and a recorder: :meth:`Tracer.append` takes
a :class:`~repro.trace.events.CallBatch` of invocations and only checks and
appends — the arrays it is handed are referenced, not copied, so the codec
must not write to them afterwards — and :meth:`Tracer.kernel` is its
one-row case. A producer that holds calls back (the encoder's trace model
hands a whole encode over in one append) registers its hand-over with
:meth:`Tracer.defer`; :meth:`Tracer.flush`, which the codec calls once when
an encode or decode ends, runs it and then seals what was appended into the
stream's columns (see :mod:`repro.trace.events`). Reading
:attr:`RecordingTracer.stream` flushes too — a read mid-encode hands over
what is held so far, in one more append — so a trace is never seen half
built.

:class:`AddressMap` gives the encoder a consistent virtual address space
for its planes and buffers, so data addresses behave like a real heap
(distinct pages per buffer, realistic strides) and ``refs`` growth
enlarges the live working set exactly as it does in FFmpeg.
"""

from __future__ import annotations

import numbers
import weakref
from collections.abc import Callable
from operator import attrgetter

import numpy as np

from repro.trace.events import (
    CallBatch,
    TraceRows,
    TraceStream,
    checked_addrs,
    checked_outcomes,
)
from repro.trace.program import InstrMix, Kernel, Program

__all__ = ["Tracer", "NullTracer", "RecordingTracer", "AddressMap"]

_PAGE = 4096
_NO_ADDRS = np.empty(0, dtype=np.uint64)
_NO_OUTCOMES = np.empty(0, dtype=bool)
#: An ``InstrMix`` as its fields' values, in field order.
_MIX_VALUES = attrgetter("alu", "mul", "load", "store", "branch")


class AddressMap:
    """Bump allocator for the encoder's simulated heap."""

    HEAP_BASE = 0x1000_0000

    def __init__(self) -> None:
        self._cursor = self.HEAP_BASE
        self._regions: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, n_bytes: int) -> int:
        """Allocate (or return the existing) page-aligned region of
        ``n_bytes``, a non-negative integer (``ValueError`` naming the
        region otherwise); an empty region still takes one page."""
        if not isinstance(n_bytes, numbers.Integral) or n_bytes < 0:
            raise ValueError(
                f"region {name!r}: size must be a non-negative integer, got {n_bytes!r}"
            )
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

    @property
    def bytes_allocated(self) -> int:
        return self._cursor - self.HEAP_BASE


class Tracer:
    """No-op base tracer; also documents the recording interface.

    ``kernel`` is one invocation of ``name`` executing ``iters`` innermost
    iterations, touching the given byte addresses and resolving the given
    data-dependent branch outcome arrays (keyed by site tag); ``append``
    takes many invocations at once, as a :class:`CallBatch`. Loop-control
    branches are derived from the kernel's instruction mix and need not be
    passed. ``flush`` marks the end of an encode or decode; it first runs
    every hand-over registered with ``defer``.
    """

    enabled = False
    _drains: tuple[weakref.WeakMethod, ...] = ()

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

    def append(self, batch: CallBatch) -> None:
        pass

    def defer(self, drain: Callable[[], None]) -> None:
        """Have :meth:`flush` run ``drain`` (a bound method) first: a
        producer that holds calls back hands them over there. It must hand
        every call over that way, or its calls would land out of order. The
        method is held weakly — a producer that is gone has nothing left to
        hand over, and a strong reference would tie the producer and the
        trace it holds into a cycle only the garbage collector frees."""
        self._drains = (*self._drains, weakref.WeakMethod(drain))

    def flush(self) -> None:
        for ref in self._drains:
            drain = ref()
            if drain is not None:
                drain()


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
        self._call_ids: list[np.ndarray] = []
        self._call_iters: list[np.ndarray] = []
        self._specs: list[Kernel] = []  # per kernel id
        self._invocations = np.zeros(0, dtype=np.int64)  # per kernel id
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
        """One invocation: the one-row case of :meth:`append`, its arrays
        checked here, with the codec's call on the stack."""
        reads = _NO_ADDRS if reads is None else checked_addrs(reads).ravel()
        writes = _NO_ADDRS if writes is None else checked_addrs(writes).ravel()
        tags = tuple(branches) if branches else ()
        outcomes = [checked_outcomes(branches[tag]).ravel() for tag in tags]
        self.append(
            CallBatch(
                names=(name,),
                kernels=np.zeros(1, dtype=np.intp),
                iters=np.array([iters], dtype=np.float64),
                read_sizes=np.array([reads.size], dtype=np.intp),
                write_sizes=np.array([writes.size], dtype=np.intp),
                addrs=np.concatenate((reads, writes), dtype=np.uint64, casting="unsafe"),
                tags=tags,
                branch_calls=np.zeros(len(tags), dtype=np.intp),
                branch_tags=np.arange(len(tags), dtype=np.intp),
                branch_sizes=np.array([o.size for o in outcomes], dtype=np.intp),
                outcomes=np.concatenate(outcomes) if outcomes else _NO_OUTCOMES,
            )
        )

    def append(self, batch: CallBatch) -> None:
        """Record ``batch``'s invocations in order: every one in the exact
        totals, the events of every ``sample``-th invocation of a kernel.
        The whole batch is checked before anything is recorded."""
        kernels, iters = batch.kernels, batch.iters
        bad = ~np.isfinite(iters) | (iters < 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"kernel {batch.names[kernels[i]]!r}: iters must be finite and"
                f" >= 0, got {float(iters[i])}"
            )
        addrs = checked_addrs(batch.addrs)
        outcomes = checked_outcomes(batch.outcomes)
        rows = self._rows
        kid = self._kernel_ids(batch.names)[kernels]
        if (kid < 0).any():
            # Names called for the first time are interned in order of first
            # call, every one looked up (KeyError if the program has no such
            # kernel) before anything is recorded.
            local, first = np.unique(kernels[kid < 0], return_index=True)
            new = list(dict.fromkeys(batch.names[k] for k in local[np.argsort(first)]))
            self._specs += [self.program.kernel(name) for name in new]
            for name in new:
                rows.kernel_id(name)
            self._invocations = np.concatenate(
                (self._invocations, np.zeros(len(new), dtype=np.int64))
            )
            kid = self._kernel_ids(batch.names)[kernels]

        # Which invocations are sampled: every ``sample``-th of each kernel,
        # counting on from the calls before this batch.
        n = kid.size
        counts = np.bincount(kid, minlength=len(self._specs))
        if self.sample == 1:
            sampled = np.ones(n, dtype=bool)
        else:
            rank = np.empty(n, dtype=np.int64)
            rank[np.argsort(kid, kind="stable")] = np.arange(n) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            sampled = (self._invocations[kid] + rank) % self.sample == 0
        self._invocations += counts
        self._call_ids.append(kid)
        self._call_iters.append(iters)
        self._stream = None

        # A sampled invocation is its kernel event, then its read, its write
        # and its branch events, each only if it is not empty.
        read, write = batch.read_sizes > 0, batch.write_sizes > 0
        kept = (batch.branch_sizes > 0) & sampled[batch.branch_calls]
        b_calls = batch.branch_calls[kept]
        n_events = (1 + read + write + np.bincount(b_calls, minlength=n)) * sampled
        start = self._n_events + np.cumsum(n_events) - n_events
        self._n_events += int(n_events.sum())
        weight = self._weight
        rows.kernel_chunks.append(
            (kid[sampled], iters[sampled], np.full(int(sampled.sum()), weight), start[sampled])
        )

        sizes = np.column_stack((batch.read_sizes, batch.write_sizes)).ravel()
        both = np.repeat(sampled, 2)
        present = (sizes > 0) & both
        if not sampled.all():  # the addresses and outcomes of sampled calls only
            addrs = addrs[np.repeat(both, sizes)]
            outcomes = outcomes[np.repeat(kept, batch.branch_sizes)]
        rows.memory_chunks.append(
            (
                np.repeat(kid, 2)[present],
                np.tile((True, False), n)[present],
                np.full(int(present.sum()), weight),
                np.column_stack((start + 1, start + 1 + read)).ravel()[present],
                sizes[present],
                addrs,
            )
        )

        # Sites are interned in order of first appearance among the events.
        n_tags = len(batch.tags)
        pairs = kernels[b_calls] * n_tags + batch.branch_tags[kept]
        codes, first = np.unique(pairs, return_index=True)
        sites = np.empty(codes.size, dtype=np.intp)
        for i in np.argsort(first).tolist():
            k, t = divmod(int(codes[i]), n_tags)
            sites[i] = rows.site_id(f"{batch.names[k]}:{batch.tags[t]}")
        rank = np.arange(b_calls.size) - np.searchsorted(b_calls, b_calls)
        rows.branch_chunks.append(
            (
                sites[np.searchsorted(codes, pairs)],
                np.full(b_calls.size, weight),
                start[b_calls] + 1 + read[b_calls] + write[b_calls] + rank,
                batch.branch_sizes[kept],
                outcomes,
            )
        )

    def _kernel_ids(self, names: tuple[str, ...]) -> np.ndarray:
        """The id of each name, -1 for one not called yet."""
        ids = self._rows.kernel_ids
        return np.array([ids.get(name, -1) for name in names], dtype=np.intp)

    def flush(self) -> None:
        """Take what producers hold back (:meth:`defer`), then seal what
        has been recorded so far into :attr:`stream`."""
        super().flush()
        if self._stream is None:
            self._stream = self._seal()

    @property
    def stream(self) -> TraceStream:
        """The trace of everything recorded so far. Further ``kernel`` /
        ``append`` / ``begin_frame`` calls do not touch a stream already
        handed out; the next read returns a new one."""
        self.flush()
        return self._stream

    def _seal(self) -> TraceStream:
        names, specs = tuple(self._rows.kernel_ids), self._specs
        ids = np.concatenate([np.empty(0, dtype=np.intp), *self._call_ids])
        iters = np.concatenate([np.empty(0, dtype=np.float64), *self._call_iters])
        per_iter = np.array([_MIX_VALUES(k.instr_mix) for k in specs]).reshape(-1, 5)
        per_call = np.array([_MIX_VALUES(k.call_overhead) for k in specs]).reshape(-1, 5)
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
            kernel_calls=dict(zip(names, self._invocations.tolist())),
            n_frames=self._n_frames,
        )

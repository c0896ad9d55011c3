"""Trace containers: the sampled trace in columns, the exact totals beside it.

A :class:`TraceStream` is the record of one encoding run. Its sampled part
— kernel invocations (instruction execution), data reads and writes, and
conditional-branch outcome sequences per static branch site — lives in one
immutable :class:`TraceColumns`: a handful of NumPy arrays per event family
instead of one Python object per event. The recorder builds the arrays
once, when the encode ends; the simulator slices them. Events carry a
``weight`` > 1 when the recorder sampled (recorded every Nth invocation):
counters derived from an event are scaled by its weight, while the exact
totals (instruction counts) are kept separately and are never sampled.

The contract of the columns:

* **Order.** Every event has a position ``0 .. n_events - 1`` in the order
  the codec reported it (``kernel_pos`` / ``mem_pos`` / ``branch_pos``);
  within a family the rows are in that order too.
* **Dtypes.** Addresses are ``uint64`` byte addresses, outcomes ``bool``,
  iteration counts and weights ``float64``, ids / offsets / positions
  ``intp``. All arrays are read-only.
* **``events`` is a view.** :attr:`TraceStream.events` materialises the
  same :class:`KernelEvent` / :class:`MemoryEvent` / :class:`BranchEvent`
  objects, in the same order, on first access (their arrays are slices of
  the columns). Tests and tools read it; nothing on the simulation path
  does. Tests build columns from a hand-built event list with
  ``columns_from_events`` in ``tests/oracles.py``, through :class:`TraceRows`.
* **What a column set may cache.** Only what is a function of the trace
  alone: line numbers with the same-line collapse per *line size*
  (:meth:`TraceColumns.data_lines`), reuse gaps per kernel *cost vector*
  (:meth:`TraceColumns.kernel_reuse`, the code layout's footprints) and
  the per-site outcome sequences (:attr:`TraceColumns.site_outcomes`).
  Nothing keyed by cache sets, ways, capacities, latencies or predictor
  kind, and never a simulation result: every model step runs on every
  ``simulate()`` call. The columns never change, so a cached view cannot
  go stale; a recorder that is fed further calls hands out a *new* stream.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.trace.program import InstrMix

__all__ = [
    "KernelEvent",
    "MemoryEvent",
    "BranchEvent",
    "CallBatch",
    "TraceRows",
    "checked_addrs",
    "checked_outcomes",
    "TraceColumns",
    "TraceStream",
    "DataLines",
    "KernelReuse",
    "ReplayWindow",
]


@dataclass(frozen=True)
class KernelEvent:
    """One (possibly weighted) kernel invocation."""

    kernel: str
    iters: float
    weight: float = 1.0


@dataclass(frozen=True)
class MemoryEvent:
    """A batch of data accesses from one kernel invocation.

    ``kind`` is ``"r"`` (data read) or ``"w"`` (data write). Addresses are
    byte addresses; the cache model reduces them to line granularity.
    Instruction fetches are not events: the instruction side is modelled
    analytically from the :class:`KernelEvent` sequence.
    """

    kernel: str
    addrs: np.ndarray  # uint64 byte addresses
    kind: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("r", "w"):
            raise ValueError(f"kind must be 'r' or 'w', got {self.kind!r}")


@dataclass(frozen=True)
class BranchEvent:
    """Outcome sequence of one static branch site in one invocation."""

    site: str  # "kernel:tag"
    outcomes: np.ndarray  # bool
    weight: float = 1.0


class DataLines(NamedTuple):
    """The data addresses at one line size, same-line neighbours within a
    memory event collapsed: event ``e`` keeps ``lines[offsets[e]:offsets[e + 1]]``."""

    lines: np.ndarray  # int64 line numbers
    offsets: np.ndarray  # intp, one more than there are memory events


class KernelReuse(NamedTuple):
    """Per kernel event, the cost of the other code run since the same
    kernel's previous invocation (``gaps[inverse]``; meaningless where
    ``first``, the kernel's first invocation)."""

    gaps: np.ndarray  # float64, the distinct gap values
    inverse: np.ndarray  # intp per kernel event, index into ``gaps``
    first: np.ndarray  # bool per kernel event


class ReplayWindow(NamedTuple):
    """A run of consecutive events: ``n_events`` of them, of which the
    memory events ``mem_lo .. mem_hi - 1`` carry ``n_addrs`` addresses."""

    n_events: int
    mem_lo: int
    mem_hi: int
    n_addrs: int


def checked_addrs(addrs) -> np.ndarray:
    """``addrs`` as an array of byte addresses: integers, none negative
    (``ValueError`` otherwise — a float would be truncated and a NaN turned
    into garbage by the cast to ``uint64``). An empty array passes."""
    arr = np.asarray(addrs)
    if arr.size:
        kind = arr.dtype.kind
        if kind == "i":
            if arr.min() < 0:
                raise ValueError("negative address in trace")
        elif kind != "u":  # unsigned: nothing to scan for
            raise ValueError(
                f"trace addresses must be integers, got dtype {arr.dtype}"
            )
    return arr


def checked_outcomes(outcomes) -> np.ndarray:
    """``outcomes`` as an array of branch outcomes: bools, or integers that
    are all 0 or 1 (``ValueError`` otherwise — the cast to ``bool`` would
    turn a 0.2 or a 3 into a taken branch unseen). An empty array passes."""
    arr = np.asarray(outcomes)
    if arr.dtype != bool and arr.size:
        if arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() > 1:
            raise ValueError(
                f"branch outcomes must be bool or integers in {{0, 1}}, got {arr.dtype}"
            )
    return arr.astype(bool, copy=False)


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only 1-D array of ``dtype``."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"trace columns are 1-D, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _offsets(sizes: Sequence[int]) -> np.ndarray:
    out = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=out[1:])
    return out


def _flat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """All elements of ``arrays``, array after array, C order within one."""
    if not arrays:
        return np.empty(0, dtype=dtype)
    return np.concatenate(arrays, axis=None, dtype=dtype, casting="unsafe")


def _joined(chunks: list[tuple], dtypes: tuple) -> list[np.ndarray]:
    """Column ``i`` of every chunk, chunk after chunk, read-only as ``dtypes[i]``;
    the one chunk's own array when there is one (a producer never writes to
    what it appended)."""
    columns = zip(*chunks) if chunks else [()] * len(dtypes)
    return [
        _column(parts[0] if _lone(parts, dtype) else _flat(list(parts), dtype), dtype)
        for parts, dtype in zip(columns, dtypes)
    ]


def _lone(parts: tuple, dtype) -> bool:
    """Is ``parts`` one 1-D array of ``dtype``?"""
    return (
        len(parts) == 1 and isinstance(parts[0], np.ndarray)
        and parts[0].dtype == dtype and parts[0].ndim == 1
    )


class CallBatch(NamedTuple):
    """Kernel invocations in call order, as columns: what a producer hands
    :meth:`Tracer.append <repro.trace.recorder.Tracer.append>` at once.

    Call ``i`` runs kernel ``names[kernels[i]]`` for ``iters[i]``
    iterations and touches ``read_sizes[i]`` addresses, then
    ``write_sizes[i]``, which follow one another in ``addrs``, call after
    call. Branch event ``j`` belongs to call ``branch_calls[j]``
    (non-decreasing: a call's events are consecutive, in order); its
    ``branch_sizes[j]`` outcomes, next in ``outcomes``, are of site
    ``"<kernel>:<tags[branch_tags[j]]>"``. An empty run of addresses or
    outcomes makes no event, as an empty array handed to ``kernel()`` makes
    none.
    """

    names: tuple[str, ...]
    kernels: np.ndarray  # intp per call, into ``names``
    iters: np.ndarray  # float64 per call
    read_sizes: np.ndarray  # intp per call
    write_sizes: np.ndarray  # intp per call
    addrs: np.ndarray  # uint64
    tags: tuple[str, ...]
    branch_calls: np.ndarray  # intp per branch event
    branch_tags: np.ndarray  # intp per branch event, into ``tags``
    branch_sizes: np.ndarray  # intp per branch event
    outcomes: np.ndarray  # bool


class TraceRows:
    """A trace being written: chunks of rows, one list per event family.

    The one way columns are made. A producer interns names with
    :meth:`kernel_id` / :meth:`site_id` and appends chunks — equal-length
    columns of rows that number the events ``0, 1, ...`` in trace order,
    with the address / outcome arrays they describe — and :meth:`build`
    joins what has been appended so far into a :class:`TraceColumns`.
    Addresses go through :func:`checked_addrs` and outcomes through
    :func:`checked_outcomes` first. What is appended is only referenced
    until then, so a producer must not write to it.
    """

    def __init__(self) -> None:
        self.kernel_ids: dict[str, int] = {}
        self.site_ids: dict[str, int] = {}
        #: (kernel ids, iters, weights, positions)
        self.kernel_chunks: list[tuple] = []
        #: (kernel ids, is load, weights, positions, sizes, the addresses of
        #: those events one after another)
        self.memory_chunks: list[tuple] = []
        #: (site ids, weights, positions, sizes, the outcomes)
        self.branch_chunks: list[tuple] = []

    def kernel_id(self, name: str) -> int:
        return self.kernel_ids.setdefault(name, len(self.kernel_ids))

    def site_id(self, name: str) -> int:
        return self.site_ids.setdefault(name, len(self.site_ids))

    def build(self) -> "TraceColumns":
        k_ids, k_iters, k_weights, k_pos = _joined(
            self.kernel_chunks, (np.intp, np.float64, np.float64, np.intp)
        )
        m_kernels, m_loads, m_weights, m_pos, m_sizes, addrs = _joined(
            self.memory_chunks, (np.intp, bool, np.float64, np.intp, np.intp, np.uint64)
        )
        b_sites, b_weights, b_pos, b_sizes, outcomes = _joined(
            self.branch_chunks, (np.intp, np.float64, np.intp, np.intp, bool)
        )
        return TraceColumns(
            kernel_names=tuple(self.kernel_ids),
            site_names=tuple(self.site_ids),
            kernel_ids=k_ids,
            kernel_iters=k_iters,
            kernel_weights=k_weights,
            kernel_pos=k_pos,
            mem_addrs=addrs,
            mem_offsets=_column(_offsets(m_sizes), np.intp),
            mem_kernels=m_kernels,
            mem_is_load=m_loads,
            mem_weights=m_weights,
            mem_pos=m_pos,
            branch_outcomes=outcomes,
            branch_offsets=_column(_offsets(b_sizes), np.intp),
            branch_sites=b_sites,
            branch_weights=b_weights,
            branch_pos=b_pos,
        )


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """The sampled trace as arrays, built by :meth:`TraceRows.build`; see
    the module docstring for the contract."""

    #: id -> kernel name, in order of first invocation.
    kernel_names: tuple[str, ...]
    #: id -> branch site ``"kernel:tag"``, in order of first appearance.
    site_names: tuple[str, ...]
    # Kernel events.
    kernel_ids: np.ndarray
    kernel_iters: np.ndarray
    kernel_weights: np.ndarray
    kernel_pos: np.ndarray
    # Memory events: event e owns mem_addrs[mem_offsets[e]:mem_offsets[e + 1]].
    mem_addrs: np.ndarray
    mem_offsets: np.ndarray
    mem_kernels: np.ndarray  # MemoryEvent.kernel as an id
    mem_is_load: np.ndarray
    mem_weights: np.ndarray
    mem_pos: np.ndarray
    # Branch events: event e owns
    # branch_outcomes[branch_offsets[e]:branch_offsets[e + 1]].
    branch_outcomes: np.ndarray
    branch_offsets: np.ndarray
    branch_sites: np.ndarray
    branch_weights: np.ndarray
    branch_pos: np.ndarray
    #: Views that depend on a parameter, by (view name, parameter).
    _keyed: dict = field(default_factory=dict, init=False, repr=False)

    # -- counts ---------------------------------------------------------

    @property
    def n_kernel(self) -> int:
        return self.kernel_ids.size

    @property
    def n_memory(self) -> int:
        return self.mem_pos.size

    @property
    def n_branch(self) -> int:
        return self.branch_pos.size

    @property
    def n_events(self) -> int:
        return self.n_kernel + self.n_memory + self.n_branch

    # -- the object view ------------------------------------------------

    @cached_property
    def events(self) -> tuple[object, ...]:
        """Every event as an object, in trace order (built on first use)."""
        events: list[object] = [None] * self.n_events
        names = self.kernel_names
        for pos, kid, iters, weight in zip(
            self.kernel_pos.tolist(),
            self.kernel_ids.tolist(),
            self.kernel_iters.tolist(),
            self.kernel_weights.tolist(),
        ):
            events[pos] = KernelEvent(names[kid], iters, weight)
        bounds = self.mem_offsets.tolist()
        for pos, kid, load, weight, lo, hi in zip(
            self.mem_pos.tolist(),
            self.mem_kernels.tolist(),
            self.mem_is_load.tolist(),
            self.mem_weights.tolist(),
            bounds,
            bounds[1:],
        ):
            events[pos] = MemoryEvent(
                names[kid], self.mem_addrs[lo:hi], "r" if load else "w", weight
            )
        bounds = self.branch_offsets.tolist()
        sites = self.site_names
        for pos, sid, weight, lo, hi in zip(
            self.branch_pos.tolist(),
            self.branch_sites.tolist(),
            self.branch_weights.tolist(),
            bounds,
            bounds[1:],
        ):
            events[pos] = BranchEvent(sites[sid], self.branch_outcomes[lo:hi], weight)
        return tuple(events)

    # -- views for the simulator (functions of the trace alone) ---------

    def windows(self, bound: int) -> Iterator[ReplayWindow]:
        """Cut the trace into runs of events: a window closes behind the
        memory event that takes its address count to ``bound``; what is
        left behind the last cut is the final window."""
        if bound < 1:
            raise ValueError(f"window bound must be >= 1, got {bound}")
        ends = self.mem_offsets[1:]  # addresses up to and including event e
        pos = lo = addrs = 0  # the window's first event / memory event / address
        while True:
            cut = int(np.searchsorted(ends, addrs + bound, side="left"))
            if cut == ends.size:
                break
            after = int(self.mem_pos[cut]) + 1
            yield ReplayWindow(after - pos, lo, cut + 1, int(ends[cut]) - addrs)
            pos, lo, addrs = after, cut + 1, int(ends[cut])
        if pos < self.n_events:
            yield ReplayWindow(
                self.n_events - pos, lo, ends.size, self.mem_addrs.size - addrs
            )

    def data_lines(self, line_shift: int) -> DataLines:
        """Line numbers of the data addresses at ``1 << line_shift`` bytes
        per line, consecutive same-line addresses of one event collapsed
        (the repeats are first-level hits whatever the geometry)."""
        key = ("data_lines", line_shift)
        if key not in self._keyed:
            lines = (self.mem_addrs >> np.uint64(line_shift)).astype(np.int64)
            keep = np.ones(lines.size, dtype=bool)
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            starts = self.mem_offsets[:-1]
            keep[starts[starts < lines.size]] = True
            kept = np.zeros(lines.size + 1, dtype=np.intp)
            np.cumsum(keep, out=kept[1:])
            self._keyed[key] = DataLines(
                _column(lines[keep], np.int64),
                _column(kept[self.mem_offsets], np.intp),
            )
        return self._keyed[key]

    def kernel_reuse(self, costs: Sequence[float]) -> KernelReuse:
        """Reuse gaps of the kernel-event sequence when an invocation of
        kernel ``k`` advances a clock by ``costs[k]``: the clock before an
        invocation minus the clock right after the same kernel's previous
        one. The clock is a left-to-right float sum, as a ``+=`` loop's."""
        key = ("kernel_reuse", tuple(costs))
        if key not in self._keyed:
            ids = self.kernel_ids
            clock = np.zeros(ids.size + 1)
            np.add.accumulate(np.asarray(key[1], dtype=np.float64)[ids], out=clock[1:])
            # Previous invocation of the same kernel, -1 where there is none.
            order = np.argsort(ids, kind="stable")
            again = ids[order[1:]] == ids[order[:-1]]
            prev = np.full(ids.size, -1, dtype=np.intp)
            prev[order[1:][again]] = order[:-1][again]
            gaps, inverse = np.unique(clock[:-1] - clock[prev + 1], return_inverse=True)
            self._keyed[key] = KernelReuse(
                _column(gaps, np.float64),
                _column(inverse, np.intp),
                _column(prev < 0, bool),
            )
        return self._keyed[key]

    @cached_property
    def site_outcomes(self) -> tuple[tuple[str, np.ndarray, float], ...]:
        """Per branch site, in order of first appearance: its name, the
        outcomes of all its events in trace order, and the mean weight of
        those events (the predictor's scale factor for the site)."""
        # Each outcome's site id in the narrowest unsigned dtype: a byte an
        # outcome for up to 256 sites, where ``intp`` took eight (4 MB on a
        # 496 K-outcome trace).
        narrow = np.min_scalar_type(max(len(self.site_names) - 1, 0))
        site_of = np.repeat(self.branch_sites.astype(narrow), np.diff(self.branch_offsets))
        return tuple(
            (
                name,
                _column(self.branch_outcomes[site_of == sid], bool),
                float(self.branch_weights[self.branch_sites == sid].mean()),
            )
            for sid, name in enumerate(self.site_names)
        )


@dataclass
class TraceStream:
    """The full trace of one encoding run."""

    columns: TraceColumns = field(default_factory=lambda: TraceRows().build())
    # Exact (unsampled) aggregate counters.
    instr: InstrMix = field(default_factory=InstrMix)
    instr_by_kernel: dict[str, InstrMix] = field(default_factory=dict)
    kernel_calls: dict[str, int] = field(default_factory=dict)
    n_frames: int = 0

    @property
    def events(self) -> tuple[object, ...]:
        """The events as objects, in trace order: a view of :attr:`columns`
        built on first access (see the module docstring)."""
        return self.columns.events

    @property
    def total_instructions(self) -> float:
        return self.instr.total

    @property
    def total_branches(self) -> float:
        return self.instr.branch


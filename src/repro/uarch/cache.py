"""Set-associative LRU caches and a multi-level data hierarchy.

The hierarchy is non-inclusive with allocate-on-miss at every level: a
miss at level *i* probes level *i+1* and fills level *i*; a miss at the
last level is a memory access. Consecutive same-line addresses of one
access batch are collapsed first (guaranteed L1 hits).

Two implementations of that one model live here:

* :class:`HierarchyReplay` is what ``simulate()`` runs. LRU is a stack
  algorithm — at associativity *A* an access hits iff fewer than *A*
  distinct lines of its set were touched since the previous touch of the
  same line — so a run of line accesses is decided at once with array
  operations, and only its miss sub-stream reaches the next level. The
  replay is level-major: the first level runs each window of memory
  events as it arrives, and each lower level holds the misses handed down
  to it until they fill a window, so every call runs a full window's worth
  of lines and holds at most about two.
* :class:`Cache` / :class:`CacheHierarchy` walk one line at a time
  through per-set Python lists. They are the oracle the tests hold the
  batched replay equal to (every counter, no tolerance) and the public
  per-line API; the simulator never reaches them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro._util import running_sum
from repro.trace.events import TraceColumns
from repro.uarch.config import CacheParams

__all__ = [
    "Cache",
    "CacheStats",
    "CacheHierarchy",
    "HierarchyReplay",
    "REPLAY_WINDOW_ADDRS",
]

#: Byte addresses the simulator hands :meth:`HierarchyReplay.replay` per
#: window, and the lines a lower level holds before it runs them. A call
#: holds under this many plus the piece handed down last: about two
#: windows of lines at most (three only where the level above missed on
#: every line). The replay's temporaries are a few dozen bytes per line,
#: so this keeps them at a few MiB whatever the trace length; counters do
#: not depend on it.
REPLAY_WINDOW_ADDRS = 1 << 15

#: Below this many undecided accesses the shrinking index walk stops paying
#: for its per-step overhead and each one is counted directly.
_DIRECT_COUNT_BELOW = 32

#: Dense steps go on while more than one position in this many is undecided:
#: cheaper than a walk over that large an index set (``fleet_replay``).
_DENSE_WHILE_UNDECIDED_OVER = 16


@dataclass
class CacheStats:
    """Access/miss counters for one cache level (weighted)."""

    accesses: float = 0.0
    misses: float = 0.0

    @property
    def hits(self) -> float:
        return self.accesses - self.misses

    def mpki(self, instructions: float) -> float:
        """Misses per kilo instructions."""
        if instructions <= 0:
            return 0.0
        return self.misses * 1000.0 / instructions


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.n_sets = params.n_sets
        self.assoc = params.assoc
        self._line_shift = int(params.line_bytes).bit_length() - 1
        if params.line_bytes != (1 << self._line_shift):
            raise ValueError("line_bytes must be a power of two")
        # Per-set LRU stacks: most recently used at the END of the list.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access_line(self, line: int, weight: float = 1.0) -> bool:
        """Access one line address; returns True on hit."""
        s = self._sets[line % self.n_sets]
        self.stats.accesses += weight
        try:
            s.remove(line)
        except ValueError:
            self.stats.misses += weight
            if len(s) >= self.assoc:
                s.pop(0)
            s.append(line)
            return False
        s.append(line)
        return True


@dataclass
class HierarchyStats:
    """Stats for every level plus memory-access totals."""

    levels: dict[str, CacheStats] = field(default_factory=dict)
    mem_accesses: float = 0.0


class CacheHierarchy:
    """A chain of cache levels backed by memory.

    ``levels`` order is nearest-first (e.g. [L1d, L2, L3]). A miss at
    level *i* probes level *i+1*; a miss at the last level counts as a
    memory access. Each level allocates on miss (non-inclusive victim
    behaviour is not modeled).
    """

    def __init__(self, levels: list[Cache]) -> None:
        if not levels:
            raise ValueError("hierarchy requires at least one level")
        _shared_line_shift([c.params for c in levels])
        self.levels = levels
        self.mem_accesses = 0.0

    def access(self, addrs: np.ndarray, weight: float = 1.0) -> None:
        """Run a batch of byte addresses through the hierarchy."""
        if addrs.size == 0:
            return
        first = self.levels[0]
        lines = (addrs >> np.uint64(first._line_shift)).astype(np.int64)
        if lines.size > 1:
            # Collapse consecutive same-line accesses (guaranteed hits).
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            collapsed = lines[keep]
            # The collapsed-away accesses still count as L1 hits.
            n_extra = float(lines.size - collapsed.size) * weight
            first.stats.accesses += n_extra
            lines = collapsed
        levels = self.levels
        n_levels = len(levels)
        for line in lines.tolist():
            level = 0
            while level < n_levels:
                if levels[level].access_line(line, weight):
                    break
                level += 1
            else:
                self.mem_accesses += weight

    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            levels={c.name: c.stats for c in self.levels},
            mem_accesses=self.mem_accesses,
        )


def _shared_line_shift(params: Sequence[CacheParams]) -> int:
    """log2 of the one line size every level must share: set indices at
    every level are taken from line addresses shifted once, up front."""
    sizes = {p.line_bytes for p in params}
    if len(sizes) != 1:
        raise ValueError(
            f"hierarchy levels must share one line_bytes, got {sorted(sizes)}"
        )
    line_bytes = sizes.pop()
    shift = int(line_bytes).bit_length() - 1
    if line_bytes != (1 << shift):
        raise ValueError("line_bytes must be a power of two")
    return shift


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from their predecessor."""
    starts = np.empty(x.size, dtype=bool)
    starts[0] = True
    np.not_equal(x[1:], x[:-1], out=starts[1:])
    return starts


def _lru_window(
    resident: np.ndarray, lines: np.ndarray, n_sets: int, assoc: int
) -> tuple[np.ndarray, np.ndarray]:
    """One window of line accesses against one LRU level.

    ``resident`` holds the level's lines from earlier windows, older
    first within each set; replaying them ahead of ``lines`` rebuilds
    every set's recency stack. Returns the miss mask of ``lines`` (trace
    order) and the resident lines afterwards.
    """
    x = np.concatenate((resident, lines))
    if n_sets > 1:
        # Sets are independent: make each one a contiguous run in time order.
        # ``x % n_sets`` through floor division, which NumPy vectorises and
        # ``%`` not; a stable sort of 8- or 16-bit keys is a radix sort.
        sets = x // n_sets
        sets *= n_sets
        np.subtract(x, sets, out=sets)
        if n_sets <= 1 << 16:
            sets = sets.astype(np.uint8 if n_sets <= 1 << 8 else np.uint16)
        order = np.argsort(sets, kind="stable")
        x = x[order]
    # A line touched twice in a row within its set hits the second time and
    # changes no other access's distinct count: walk the first touches only.
    first = _run_starts(x)
    c = x[first]
    n = c.size

    # Distance to the next / previous touch of the same line (n / 0: none),
    # from one sort of (line, position) packed into one key — 32 bits wide
    # where it fits, which sorts twice as fast.
    low = int(c.min())
    sh = (n - 1).bit_length()
    width = (int(c.max()) - low).bit_length() + sh
    if width > 62:
        by_line = np.argsort(c, kind="stable")
        sorted_lines = c[by_line]
    else:
        key = np.uint32 if width <= 32 else np.int64
        sorted_lines = (c - low).astype(key, copy=False)
        sorted_lines <<= sh
        sorted_lines |= np.arange(n, dtype=key)
        sorted_lines.sort()
        by_line = (sorted_lines & ((1 << sh) - 1)).astype(np.intp, copy=False)
        sorted_lines >>= sh
    dist = np.int32 if n < 1 << 31 else np.intp
    step = (by_line[1:] - by_line[:-1]).astype(dist)
    new_line = sorted_lines[1:] != sorted_lines[:-1]
    step[new_line] = n
    to_next = np.empty(n, dtype=dist)
    to_next[by_line[:-1]] = step
    to_next[by_line[-1]] = n
    step[new_line] = 0
    to_prev = np.empty(n, dtype=dist)
    to_prev[by_line[1:]] = step
    to_prev[by_line[0]] = 0

    # Never touched before: miss. At most ``assoc - 1`` accesses in between:
    # hit. Otherwise count the distinct lines in between — position i - k
    # holds one iff its line is not touched again before i, that is
    # ``to_next[i - k] > k`` — until the count reaches ``assoc`` (miss) or
    # k reaches the previous touch (hit).
    miss = to_prev == 0
    if np.any(to_prev > assoc):
        # Steps over the whole window as dense slices, ``assoc`` at a time.
        # The first ``assoc`` need no mask: a count reaches ``assoc`` only
        # past an access's previous touch, which never counts. Later ones
        # count inside each access's gap only; clamped to ``assoc`` after
        # each block, a count never exceeds ``2 * assoc``.
        count = np.zeros(n, dtype=np.uint8 if 2 * assoc < 256 else dist)
        k = 0
        while True:
            for k in range(k + 1, k + assoc + 1):
                distinct = to_next[:-k] > k
                if k > assoc:
                    distinct &= to_prev[k:] > k
                count[k:] += distinct
            miss |= count >= assoc
            idx = np.flatnonzero((to_prev > k + 1) & (count < assoc))
            if idx.size * _DENSE_WHILE_UNDECIDED_OVER <= n:
                break
            np.minimum(count, assoc, out=count)
        # Then a shrinking index set of the undecided: an access leaves once
        # it is decided.
        count, between = count[idx], to_prev[idx] - 1
        while idx.size >= _DIRECT_COUNT_BELOW:
            k += 1
            count += to_next[idx - k] > k
            evicted = count >= assoc
            miss[idx[evicted]] = True
            live = ~evicted & (between > k)
            idx, count, between = idx[live], count[live], between[live]
        if idx.size:
            # The stragglers sit behind long few-line runs (ping-pong):
            # one slice each instead of one step per element for all.
            ramp = np.arange(n, 0, -1)
            for i, gap in zip(idx.tolist(), between.tolist()):
                distinct = np.count_nonzero(to_next[i - gap : i] > ramp[n - gap :])
                miss[i] = distinct >= assoc

    # What stays resident: the last ``assoc`` distinct lines of each set,
    # i.e. the final touches (no next), newest ``assoc`` per set.
    final = np.flatnonzero(to_next == n)
    if n_sets > 1:
        final_sets = c[final] % n_sets  # non-decreasing: runs are set by set
        run_end = np.searchsorted(final_sets, final_sets, side="right")
        final = final[run_end - np.arange(final.size) <= assoc]
    else:
        final = final[-assoc:]

    full = np.zeros(x.size, dtype=bool)
    full[first] = miss
    if n_sets > 1:
        in_trace_order = np.empty(x.size, dtype=bool)
        in_trace_order[order] = full
        full = in_trace_order
    return full[resident.size :], c[final]


class HierarchyReplay:
    """Batched, stateful replay of memory events through a data hierarchy.

    The same model as :class:`CacheHierarchy` driven one event at a time
    with per-event load/store miss snapshots, and the same counters bit
    for bit (fractional weights included); see the module docstring.
    ``params`` order is nearest-first. Feed the memory events to
    :meth:`replay` in order, one window at a time; where the windows are
    cut changes no counter.
    """

    def __init__(self, params: Sequence[CacheParams]) -> None:
        if not params:
            raise ValueError("hierarchy requires at least one level")
        self._line_shift = _shared_line_shift(params)
        self._geometry = [(p.n_sets, p.assoc) for p in params]
        self._resident = [np.empty(0, dtype=np.int64) for _ in params]
        # Per level, the pieces handed down and not yet run, oldest first,
        # and their line count (the first level's one piece, the window, runs
        # at once). A piece is (lines, each line's event index, the events'
        # weights, their load flags): it carries its own events, so held
        # lines never read another window's or trace's arrays.
        self._held: list[list[tuple[np.ndarray, ...]]] = [[] for _ in params]
        self._held_lines = [0] * len(params)
        self._l1_accesses = 0.0
        # Running load+store miss total per level: the oracle's
        # ``CacheStats.misses``, which its per-event deltas are taken from.
        self._misses = [0.0] * len(params)
        self._load_misses = [0.0] * len(params)
        self._store_misses = [0.0] * len(params)

    @property
    def accesses(self) -> list[float]:
        """Weighted accesses per level: a level sees exactly the misses
        of the level above it, in the same order."""
        self._run_held()
        return [self._l1_accesses, *self._misses[:-1]]

    @property
    def load_misses(self) -> list[float]:
        """Weighted load misses per level."""
        self._run_held()
        return list(self._load_misses)

    @property
    def store_misses(self) -> list[float]:
        """Weighted store misses per level."""
        self._run_held()
        return list(self._store_misses)

    @property
    def load_mem(self) -> float:
        """Weighted memory accesses by loads (last-level load misses)."""
        return self.load_misses[-1]

    @property
    def store_mem(self) -> float:
        """Weighted memory accesses by stores (last-level store misses)."""
        return self.store_misses[-1]

    def replay(self, trace: TraceColumns, lo: int = 0, hi: int | None = None) -> None:
        """Run one window: the memory events ``lo .. hi - 1`` of ``trace``
        (all of them by default); ``ValueError`` unless
        ``0 <= lo <= hi <= trace.n_memory``.

        The first level runs the window now. A lower level holds what the
        level above hands down and runs it once it holds
        :data:`REPLAY_WINDOW_ADDRS` lines, when a window ends at its
        trace's last memory event, or when a counter is read. Each level
        still sees its input in order and no event spans two of its runs,
        so by the cut invariance the counters are those of running every
        level on every window."""
        if hi is None:
            hi = trace.n_memory
        if not 0 <= lo <= hi <= trace.n_memory:
            raise ValueError(
                f"replay window [{lo}, {hi}) is not within the trace's "
                f"n_memory = {trace.n_memory} memory events"
            )
        if hi > lo:
            self._replay_first_level(trace, lo, hi)
        if hi == trace.n_memory:
            self._run_held()

    def _replay_first_level(self, trace: TraceColumns, lo: int, hi: int) -> None:
        weights = trace.mem_weights[lo:hi]
        is_load = trace.mem_is_load[lo:hi]
        sizes = np.diff(trace.mem_offsets[lo : hi + 1])
        # Same-line neighbours within an event are already collapsed; they
        # stay L1 accesses (and hits), charged ahead of the event's walk.
        data = trace.data_lines(self._line_shift)
        kept = np.diff(data.offsets[lo : hi + 1])
        lines = data.lines[data.offsets[lo] : data.offsets[hi]]
        terms = np.repeat(weights, kept + 1)
        terms[np.cumsum(kept + 1) - (kept + 1)] = (sizes - kept) * weights
        self._l1_accesses = float(running_sum(self._l1_accesses, terms)[-1])
        if not lines.size:
            return

        event_of = np.repeat(np.arange(hi - lo), kept)
        self._held[0].append((lines, event_of, weights, is_load))
        self._run(0)

    def _run_held(self) -> None:
        """Run every level's held lines, nearest level first."""
        for level in range(len(self._geometry)):
            if self._held[level]:
                self._run(level)

    def _run(self, level: int) -> None:
        """Run ``level``'s held lines, count its misses and hold them for the
        level below, which runs them once it holds a window's worth."""
        lines, event_of, weights, is_load = _joined(self._held[level])
        self._held[level], self._held_lines[level] = [], 0
        n_sets, assoc = self._geometry[level]
        miss, self._resident[level] = _lru_window(
            self._resident[level], lines, n_sets, assoc
        )
        lines, event_of = lines[miss], event_of[miss]
        if not lines.size:
            return
        self._count_misses(level, event_of, weights, is_load)
        below = level + 1
        if below < len(self._geometry):
            self._held[below].append((lines, event_of, weights, is_load))
            self._held_lines[below] += lines.size
            if self._held_lines[below] >= REPLAY_WINDOW_ADDRS:
                self._run(below)

    def _count_misses(
        self,
        level: int,
        event_of: np.ndarray,
        weights: np.ndarray,
        is_load: np.ndarray,
    ) -> None:
        """Add one run's misses at ``level`` the way the oracle's caller
        does: a running total, and per event the difference of that total
        across the event added to the load or the store counter."""
        total = running_sum(self._misses[level], weights[event_of])
        # Index of each event's last miss; the total after it, and before
        # the event's first (= after the previous event's last).
        last = np.flatnonzero(np.append(event_of[1:] != event_of[:-1], True))
        after = total[last + 1]
        before = np.concatenate((total[:1], after[:-1]))
        delta = after - before
        loads = is_load[event_of[last]]
        self._misses[level] = float(total[-1])
        self._load_misses[level] = float(
            running_sum(self._load_misses[level], delta[loads])[-1]
        )
        self._store_misses[level] = float(
            running_sum(self._store_misses[level], delta[~loads])[-1]
        )


def _joined(pieces: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Held pieces as one: lines and events end to end, each piece's event
    indices moved past the events of the pieces before it."""
    if len(pieces) == 1:
        return pieces[0]
    lines, event_of, weights, is_load = (np.concatenate(column) for column in zip(*pieces))
    firsts = np.cumsum([0, *(piece[2].size for piece in pieces[:-1])])
    event_of += np.repeat(firsts, [piece[0].size for piece in pieces])
    return lines, event_of, weights, is_load

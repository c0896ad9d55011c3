"""Branch predictor models: static, Pentium-M-style two-level, and TAGE.

The trace records, per static branch site, the full sequence of outcomes
of its data-dependent branches (in program order, concatenated across
kernel invocations). Predictors are evaluated analytically on those
sequences: a two-level adaptive predictor with a k-bit local history
converges to predicting, for each observed history pattern, the majority
next-outcome — so its steady-state mispredictions are exactly the
minority counts per pattern, plus a training cost of one miss per
distinct pattern. TAGE is modeled as the best of several history lengths
per site (its tagged geometric-history tables effectively give every
branch the history length that predicts it best) with a small tag/alias
overhead. This analytic evaluation is orders of magnitude faster than a
stateful per-branch loop and is exact in the steady state.

Loop-control branches (the difference between the instruction mix's
branch count and the recorded data-dependent branches) are near-perfectly
predictable; they contribute a small base misprediction rate for loop
exits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._util import check_choice

__all__ = ["BranchModel", "BranchStats", "two_level_mispredicts"]

#: Base misprediction rate of loop-control branches (loop exits).
_LOOP_MISPREDICT_RATE = {"static": 0.010, "pentium_m": 0.003, "tage": 0.0015}

#: History lengths TAGE effectively chooses among (geometric series).
_TAGE_HISTORIES = (2, 4, 8, 16, 32)

_PENTIUM_M_HISTORY = 6

#: Destructive-aliasing inflation of untagged two-level tables.
_PM_ALIASING = 1.2
#: TAGE's per-pattern history selection beats the per-site best-history
#: bound by roughly this factor on branchy integer code.
_TAGE_FACTOR = 0.55


@dataclass
class BranchStats:
    """Aggregate branch prediction outcome for one simulated run."""

    total_branches: float = 0.0
    mispredicts: float = 0.0

    def mpki(self, instructions: float) -> float:
        if instructions <= 0:
            return 0.0
        return self.mispredicts * 1000.0 / instructions


#: The dtypes packed outcomes are held in, by the bits each holds: unsigned
#: up to 32 bits, then int64 (63 bits), since ``np.bincount`` refuses uint64.
_DTYPES = ((np.uint8, 8), (np.uint16, 16), (np.uint32, 32), (np.int64, 63))


def _narrowest(bits: int) -> type:
    """The narrowest dtype in :data:`_DTYPES` that holds ``bits`` bits."""
    return next(t for t, room in _DTYPES if bits <= room)


def _pack(out: np.ndarray, width: int) -> np.ndarray:
    """``out[i : i + width]`` packed into one integer (first outcome in the
    top bit) for every ``i`` the window fits at, in the narrowest dtype
    that holds ``width`` bits.

    A doubling pass: the pattern over ``2w`` outcomes is the pattern over
    the first ``w`` shifted up, or-ed with the pattern over the next ``w``;
    the window is assembled from the power-of-two patterns ``width`` is the
    sum of, last chunk first — a handful of array passes, not ``width``,
    each array in the narrowest dtype for the bits it holds.
    """
    key, covered = out, 0  # key[i] packs out[i : i + covered] once covered > 0
    power, step = out, 1  # power[i] packs out[i : i + step]
    while True:
        if width & step:
            if covered:
                joined = np.left_shift(
                    power[:-covered], covered, dtype=_narrowest(covered + step)
                )
                joined |= key[step:]
                key = joined
            else:
                key = power
            covered += step
            if covered == width:
                return key
        doubled = np.left_shift(power[:-step], step, dtype=_narrowest(2 * step))
        doubled |= power[step:]
        power = doubled
        step *= 2


def _dense_mispredicts(counts: np.ndarray) -> float:
    """Minority outcomes per history pattern plus one training miss per
    distinct pattern, from the count of every packed (pattern, next
    outcome) key: the two outcomes of a pattern sit side by side."""
    not_taken, taken = counts[0::2], counts[1::2]
    steady = float(np.minimum(not_taken, taken).sum())
    return steady + float(np.count_nonzero(not_taken + taken))


def _sorted_mispredicts(keys: np.ndarray) -> float:
    """:func:`_dense_mispredicts` from the sorted keys themselves, for long
    histories, whose dense pattern space is huge (2^33 for 32-bit TAGE
    components) while only a few patterns occur.

    Leaves ``keys`` shifted to their patterns, in place and still sorted:
    the two boolean masks are the only temporaries as long as the keys."""
    new_key = keys[1:] != keys[:-1]
    keys >>= 1
    new_pattern = keys[1:] != keys[:-1]
    # A pattern seen with both outcomes has its last not-taken key right
    # before its first taken one: a new key, not a new pattern. Its
    # minority count is the steady-state misses.
    both = np.flatnonzero(new_key > new_pattern)
    not_taken = both + 1 - np.searchsorted(keys, keys[both], side="left")
    taken = np.searchsorted(keys, keys[both], side="right") - both - 1
    steady = float(np.minimum(not_taken, taken).sum())
    return steady + float(1 + np.count_nonzero(new_pattern))


def _two_level_by_history(
    outcomes: np.ndarray, histories: Sequence[int]
) -> dict[int, float]:
    """:func:`two_level_mispredicts` of one outcome sequence at several
    history lengths, from one window array, one key array, at most one
    ``bincount`` and at most one sort, whatever the number of histories.

    History ``h``'s key at position ``i`` packs ``out[i : i + h + 1]`` —
    the history and the outcome that followed it — for ``i < n - h``. The
    window packs the widest history ``top``'s ``top`` outcomes per position
    (:func:`_pack`, over the outcomes padded with zeros, in the narrowest
    dtype that holds ``top`` bits); a shorter history's key is a window's
    leading ``h + 1`` bits. Only ``top``'s own keys take one bit more, the
    outcome after the window, and they are the one key array: every
    shorter history's keys are right shifts of it, in place, plus the few
    keys past the wider history's last (``n - wider <= i < n - h``), which
    come from the last ``top`` windows. A history is counted densely (a
    count of every possible key) while ``2 << h <= 4 (n - h)`` and from
    its sorted keys otherwise; that is monotone in ``h``, so ``top`` is the
    widest sparse history and the dense ones are the shortest:

    * ``top``'s keys are sorted in place; each shorter sparse history
      shifts the sorted keys right (which keeps them sorted) and inserts
      its own few keys;
    * the widest dense history ``bincount``-s the keys; each shorter one
      sums the next wider one's counts over its dropped bits (a reshape)
      and adds its own few keys.
    """
    for h in histories:
        if h > 62:
            raise ValueError(f"history_bits must be <= 62, got {h}")
    n = outcomes.size
    result: dict[int, float] = {}
    packed = []
    for h in histories:
        if n == 0:
            result[h] = 0.0
        elif h <= 0:
            # Degenerate bimodal: majority vote over the whole stream.
            taken = float(np.count_nonzero(outcomes))
            result[h] = min(taken, n - taken) + 1.0
        elif n <= h:
            result[h] = n * 0.5
        else:
            packed.append(h)
    if not packed:
        return result
    top = max(packed)
    padded = np.zeros(n + top - 1, dtype=np.uint8)
    padded[:n] = outcomes
    window = _pack(padded, top)  # window[i] packs out[i : i + top], zeros past n
    del padded
    keys = np.left_shift(window[: n - top], 1, dtype=_narrowest(top + 1))
    keys |= outcomes[top:]  # ``top``'s own keys
    held = top + 1  # outcomes packed in each entry of ``keys``
    last = window[n - top :].copy()  # holds every key past ``top``'s last
    del window
    counted: dict[int, float] = {}
    wider, counts = top, None
    for h in sorted(set(packed), reverse=True):
        # The keys past the wider history's last: n - wider <= i < n - h.
        tail = last[top - wider : top - h] >> (top - 1 - h) if h < top else None
        if (2 << h) > 4 * (n - h):  # sparse, and so is every wider history
            if h == top:
                keys.sort()
            else:
                tail.sort()
                keys >>= held - h - 1
                keys = np.insert(keys, np.searchsorted(keys, tail), tail)
            counted[h], held = _sorted_mispredicts(keys), h  # now h's patterns
        else:
            if counts is None:  # the widest dense history: its keys in place
                if held > h + 1:
                    keys >>= held - h - 1
                counts = np.bincount(keys, minlength=2 << h)
                keys = None  # freed before the counts' own temporaries
            else:
                counts = counts.reshape(2 << h, -1).sum(axis=1)
            if tail is not None:
                np.add.at(counts, tail, 1)
            counted[h] = _dense_mispredicts(counts)
        wider = h
    for h in packed:
        result[h] = counted[h] + h * 0.5  # + warm-up
    return result


def two_level_mispredicts(outcomes: np.ndarray, history_bits: int) -> float:
    """Steady-state + training mispredictions of a two-level predictor.

    For each ``history_bits``-length pattern, the predictor learns the
    majority next outcome; mispredictions are the minority occurrences.
    The first occurrence of each distinct pattern is charged as a
    training miss. The first ``history_bits`` branches (history warm-up)
    are charged at 50%.
    """
    return _two_level_by_history(outcomes, (history_bits,))[history_bits]


class BranchModel:
    """Evaluate one predictor over per-site outcome sequences."""

    def __init__(self, kind: str) -> None:
        check_choice("kind", kind, ("static", "pentium_m", "tage"))
        self.kind = kind
        self._site_outcomes: dict[str, list[tuple[np.ndarray, float]]] = {}

    def record(self, site: str, outcomes: np.ndarray, weight: float = 1.0) -> None:
        """Append a weighted outcome sequence for a static branch site."""
        self._site_outcomes.setdefault(site, []).append(
            (np.asarray(outcomes, dtype=bool), weight)
        )

    def _site_mispredicts(self, outcomes: np.ndarray, branch_hints: bool) -> float:
        if self.kind == "static":
            taken = float(np.count_nonzero(outcomes))
            not_taken = outcomes.size - taken
            if branch_hints:
                return min(taken, not_taken)
            # Without profile hints: static predicts not-taken.
            return taken
        # Both real predictors include a bimodal base table, so they are
        # never worse than simply predicting each site's majority outcome.
        taken = float(np.count_nonzero(outcomes))
        bimodal = min(taken, outcomes.size - taken) + 1.0
        if self.kind == "pentium_m":
            # Untagged two-level tables suffer destructive aliasing
            # between sites; a fixed inflation models that interference.
            m = min(
                two_level_mispredicts(outcomes, _PENTIUM_M_HISTORY) * _PM_ALIASING,
                bimodal,
            )
        else:  # tage
            best = min(_two_level_by_history(outcomes, _TAGE_HISTORIES).values())
            # Tagged geometric tables pick the best history length *per
            # pattern*, not per site, and avoid aliasing entirely — a
            # further constant-factor win over the per-site best-history
            # bound, at a small allocation overhead.
            m = min(best * _TAGE_FACTOR + 1.0, bimodal)
        if branch_hints:
            # Profile-informed layout seeds sensible static predictions,
            # cutting the predictor's training-time losses.
            m = max(m * 0.9, 0.0)
        return m

    def evaluate(
        self,
        *,
        total_branches: float,
        branch_hints: bool = False,
    ) -> BranchStats:
        """Total mispredictions given all recorded sites.

        ``total_branches`` is the exact dynamic branch count from the
        instruction mix; recorded data-dependent branches are evaluated
        through the predictor model, the remainder are loop-control
        branches at the predictor's base rate.
        """
        recorded = 0.0
        mispredicts = 0.0
        # A stream's count depends on its content alone, so sites with equal
        # streams (``quant:nz`` and ``entropy_coeff:sig`` always are) share
        # one count; it is kept for this call only.
        counted: dict[bytes, float] = {}
        for sequences in self._site_outcomes.values():
            # All sequences of a site share one predictor entry: evaluate
            # the concatenation (weights are typically uniform; a weighted
            # mix uses the mean weight as the scale factor).
            arrays = [a for a, _w in sequences]
            weights = np.array([w for _a, w in sequences])
            outcomes = np.concatenate(arrays)
            scale = float(weights.mean())
            recorded += outcomes.size * scale
            stream = outcomes.tobytes()
            if stream not in counted:
                counted[stream] = self._site_mispredicts(outcomes, branch_hints)
            mispredicts += counted[stream] * scale
        loop_branches = max(total_branches - recorded, 0.0)
        mispredicts += loop_branches * _LOOP_MISPREDICT_RATE[self.kind]
        return BranchStats(total_branches=total_branches, mispredicts=mispredicts)

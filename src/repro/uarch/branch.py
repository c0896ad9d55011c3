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


def _history_keys(out: np.ndarray, h: int) -> np.ndarray:
    """``out[i : i + h + 1]`` — a history and the outcome that followed it
    — packed into one integer (first outcome in the top bit), for every
    ``i``, in ``out``'s dtype.

    A doubling pass: the pattern over ``2w`` outcomes is the pattern over
    the first ``w`` shifted up, or-ed with the pattern over the next ``w``;
    the key is assembled from the power-of-two patterns ``h + 1`` is the
    sum of, last chunk first — a handful of array passes, not ``h``.
    """
    key, covered = out, 0  # key[i] packs out[i : i + covered] once covered > 0
    power, width = out, 1  # power[i] packs out[i : i + width]
    while True:
        if (h + 1) & width:
            key = power if not covered else (power[:-covered] << covered) | key[width:]
            covered += width
            if covered == h + 1:
                return key
        power = (power[:-width] << width) | power[width:]
        width *= 2


def _count_mispredicts(keys: np.ndarray, history_bits: int) -> float:
    """Minority outcomes per history pattern plus one training miss per
    distinct pattern, from the packed (pattern, next outcome) ``keys``."""
    if (2 << history_bits) <= 4 * keys.size:
        # Few possible keys: count them all; the two outcomes of a pattern
        # sit side by side.
        counts = np.bincount(keys, minlength=2 << history_bits)
        not_taken, taken = counts[0::2], counts[1::2]
        steady = float(np.minimum(not_taken, taken).sum())
        training = float(np.count_nonzero(not_taken + taken))
    else:
        # Sparse counting: long histories make the dense pattern space huge
        # (2^33 for 32-bit TAGE components) but only a few patterns occur.
        keys = np.sort(keys)
        change = keys[1:] ^ keys[:-1]
        # Sorted, a pattern that occurs with both outcomes has its last
        # not-taken key right before its first taken one, one bit apart;
        # its minority count is the steady-state misses.
        both = np.flatnonzero(change == 1)
        not_taken = both + 1 - np.searchsorted(keys, keys[both], side="left")
        taken = np.searchsorted(keys, keys[both + 1], side="right") - both - 1
        steady = float(np.minimum(not_taken, taken).sum())
        training = float(1 + np.count_nonzero(change) - both.size)
    return steady + training


def _two_level_by_history(
    outcomes: np.ndarray, histories: Sequence[int]
) -> dict[int, float]:
    """:func:`two_level_mispredicts` of one outcome sequence at several
    history lengths, sharing one :func:`_history_keys` pass: the keys of
    the widest history over the outcomes padded with zeros, one per
    outcome; a shorter history's keys are their leading bits."""
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
    if packed:
        top = max(packed)
        # The narrowest integer that holds ``top + 1`` outcomes.
        narrowest = next(t for t in (np.uint8, np.uint16, np.uint32, np.int64)
                         if np.iinfo(t).bits > top)
        padded = np.zeros(n + top, dtype=narrowest)
        padded[:n] = outcomes
        widest = _history_keys(padded, top)
        for h in packed:
            keys = widest[: n - h] >> (top - h) if h < top else widest[: n - h]
            result[h] = _count_mispredicts(keys, h) + h * 0.5  # + warm-up
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
        for sequences in self._site_outcomes.values():
            # All sequences of a site share one predictor entry: evaluate
            # the concatenation (weights are typically uniform; a weighted
            # mix uses the mean weight as the scale factor).
            arrays = [a for a, _w in sequences]
            weights = np.array([w for _a, w in sequences])
            outcomes = np.concatenate(arrays)
            scale = float(weights.mean())
            recorded += outcomes.size * scale
            mispredicts += self._site_mispredicts(outcomes, branch_hints) * scale
        loop_branches = max(total_branches - recorded, 0.0)
        mispredicts += loop_branches * _LOOP_MISPREDICT_RATE[self.kind]
        return BranchStats(total_branches=total_branches, mispredicts=mispredicts)

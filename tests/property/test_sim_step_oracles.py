"""Two simulator steps against the bodies they replaced, ``==`` exactly.

* ``cache._lru_window`` groups sets with one radix sort, orders lines by one
  sort of a shift-packed (line, position) key — 32 bits wide where it fits —
  counts in int32 / uint8 and decides far accesses in whole-window steps
  before the shrinking walk; ``tests.oracles.lru_window_int64`` sorts twice
  through a multiply-packed key, counts in ``intp`` and walks every far
  access.
* ``branch._two_level_by_history`` takes every history's keys from one
  window array at the widest history, in the narrowest integer that holds
  it, counts every dense history from one ``bincount`` and every sparse one
  from one sort; ``tests.oracles.two_level_by_history_per_width`` builds an
  int64 key array per history and counts each with ``np.unique`` or a
  ``bincount`` of its own.
* ``BranchModel.evaluate`` counts each distinct outcome stream once a call;
  ``tests.oracles.evaluate_per_site`` counts every site's stream.

Each pair must agree bit for bit — the same miss mask and resident lines
with the same dtypes, the same float per history, the same
``BranchStats`` — on the edges the new forms introduce: set counts around
the 8- and 16-bit radix keys, ways around the uint8 counter, line spans
around the 32-bit key and the 62-bit packing limit (lines near 2**58),
one-line windows, empty residents, ping-pong runs that keep a large share
of a window undecided, every outcome length around the histories, several
dense or sparse histories under one widest one, the widest history at
each dtype's edge, lengths at the dense/sparse boundary, and sites whose
streams are equal, equal in size only, or recorded in pieces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.uarch.branch import BranchModel, _two_level_by_history, two_level_mispredicts
from repro.uarch.cache import _lru_window
from tests.oracles import (
    evaluate_per_site,
    lru_window_int64,
    two_level_by_history_per_width,
)

SEED = 28
_SETTINGS = settings(max_examples=120, deadline=None)

# --- the LRU window ----------------------------------------------------------

#: Set counts: one set, small and odd ones, the 8-bit radix key's edge, the
#: 16-bit key's edge, and past it (the multiply-packed order).
N_SETS = (1, 2, 3, 10, 255, 256, 257, 65535, 65536, 70000)
#: Ways: direct-mapped, the Table IV ones, and the uint8 counter's edges.
ASSOC = (1, 8, 16, 127, 128, 254, 255, 256)
#: Where line numbers start: 0, a span that no longer packs into 32 bits,
#: and near 2**58, where a wide span no longer packs into 62.
BASES = (0, (1 << 31) - 7, (1 << 58) - 1000)


def _assert_same_window(resident, lines, n_sets, assoc):
    """Both implementations on one window; returns the oracle's resident
    lines, the next window's ``resident``."""
    got_miss, got_res = _lru_window(resident, lines, n_sets, assoc)
    exp_miss, exp_res = lru_window_int64(resident, lines, n_sets, assoc)
    assert got_miss.dtype == exp_miss.dtype == np.bool_
    assert np.array_equal(got_miss, exp_miss)
    assert got_res.dtype == exp_res.dtype == np.int64
    assert np.array_equal(got_res, exp_res)
    return exp_res


def _replay_windows(windows, n_sets, assoc):
    resident = np.empty(0, dtype=np.int64)
    for lines in windows:
        resident = _assert_same_window(resident, lines, n_sets, assoc)


@st.composite
def line_windows(draw):
    """One to three windows over a small line alphabet spread across sets,
    some lines with a twin far away (spans past 32 and past 62 packed bits:
    a key that dropped its top bits would merge the twins), runs repeated
    in place and two- or three-line ping-pong stretches."""
    n_sets = draw(st.sampled_from(N_SETS))
    alphabet = draw(st.integers(1, 40))
    stride = draw(st.sampled_from((1, n_sets, n_sets + 1)))
    base = draw(st.sampled_from(BASES))
    ids = np.arange(alphabet, dtype=np.int64) * stride + base
    far = draw(st.sampled_from((0, 1 << 20, 1 << 40, 1 << 58)))
    if far:
        ids = np.concatenate((ids, ids[-draw(st.integers(1, alphabet)) :] + far))
        alphabet = ids.size
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        picks = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=200))
        if draw(st.booleans()):  # ping-pong over two or three lines
            hot = picks[:3]
            picks += [hot[i % len(hot)] for i in range(draw(st.integers(0, 300)))]
        lines = np.repeat(ids[picks], draw(st.sampled_from((1, 1, 2))))
        windows.append(lines)
    return n_sets, windows


@seed(SEED)
@_SETTINGS
@given(line_windows(), st.sampled_from(ASSOC))
def test_lru_window_matches_the_int64_oracle(case, assoc):
    n_sets, windows = case
    _replay_windows(windows, n_sets, assoc)


@pytest.mark.parametrize("assoc", ASSOC)
@pytest.mark.parametrize("n_sets", N_SETS)
def test_one_line_windows(n_sets, assoc):
    """One access, then the same line again, then a second line: empty and
    one-line residents, one-element sorts."""
    for base in BASES:
        line = np.array([base + 5], dtype=np.int64)
        other = np.array([base + 5 + n_sets], dtype=np.int64)
        _replay_windows([line, line, other, line], n_sets, assoc)


@pytest.mark.parametrize("far", [1 << 20, 1 << 31, 1 << 40, 1 << 57, 1 << 58, 1 << 61])
@pytest.mark.parametrize("n", [2, 3, 16, 17, 100, 128, 129, 600])
def test_far_twin_lines(n, far):
    """Lines ``j`` and ``j + far`` in one window of ``n`` accesses: every
    packed-key width from 32 bits to past 62 at every position width, and a
    key that dropped its top bits would merge the twins."""
    rng = np.random.default_rng([SEED, n, far.bit_length()])
    ids = np.arange(8, dtype=np.int64)
    ids = np.concatenate((ids, ids + far))
    lines = ids[rng.integers(0, ids.size, size=n)]
    for n_sets, assoc in ((1, 2), (2, 4), (10, 8)):
        _replay_windows([lines, lines[::-1]], n_sets, assoc)


@pytest.mark.parametrize("assoc", [1, 2, 8])
@pytest.mark.parametrize("n_sets", [257, 300, 65537, 70000])
def test_sets_that_share_their_low_bits(n_sets, assoc):
    """Sets ``s``, ``s + 256`` and ``s + 65536`` (where they exist) hold the
    same low byte / low 16 bits: grouped by a key too narrow, they would
    evict each other."""
    sets = [s for s in (0, 256, 65536, 1, 257, 65537) if s < n_sets]
    rng = np.random.default_rng([SEED, n_sets, assoc])
    for base in BASES:
        first = base - base % n_sets  # a line of set 0
        pool = np.array(
            [first + s + way * n_sets for s in sets for way in range(assoc + 1)],
            dtype=np.int64,
        )
        windows = [pool[rng.integers(0, pool.size, size=300)] for _ in range(2)]
        _replay_windows(windows, n_sets, assoc)


@pytest.mark.parametrize("assoc", [1, 2, 8, 16, 255, 256])
@pytest.mark.parametrize("n_sets", [1, 3, 10, 65536, 70000])
@pytest.mark.parametrize("waiting", [1, 4, 40])
def test_waiting_lines_behind_ping_pong(n_sets, assoc, waiting):
    """``waiting`` lines each touched once per round, every touch followed
    by a long run over ``assoc - 1`` or ``assoc`` hot lines of the same set:
    many accesses stay undecided for dozens of steps (the whole-window steps
    go on past the first ``assoc``, then the walk, then the direct count)."""
    rng = np.random.default_rng([SEED, n_sets, assoc, waiting])
    hot = (np.arange(1, assoc + 1) + 1000) * n_sets
    parts = []
    for i in range(6 * waiting):
        ways = hot[: max(assoc - int(rng.integers(2)), 1)]
        run = ways[rng.integers(0, ways.size, size=int(rng.integers(2, 60)))]
        parts += [[(i % waiting) * n_sets], run]
    lines = np.concatenate(parts).astype(np.int64)
    cut = lines.size // 3
    _replay_windows([lines[:cut], lines[cut:]], n_sets, assoc)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("n_sets", [1, 10, 170])
def test_table_iv_sized_windows(n_sets, base):
    """Windows the size the simulator cuts (thousands of lines, a few hundred
    distinct per set), random reuse: the packed key sorts at full width."""
    rng = np.random.default_rng([SEED, n_sets, base % 997])
    pool = base + rng.choice(1 << 14, size=3000, replace=False).astype(np.int64)
    windows = [pool[rng.zipf(1.3, size=4000) % pool.size] for _ in range(3)]
    for assoc in (8, 16):
        _replay_windows(windows, n_sets, assoc)


# --- the predictor counts ----------------------------------------------------

#: TAGE's and Pentium-M's histories; the degenerate and longest ones;
#: several dense histories under one widest dense history; several sparse
#: ones sharing one sort; and the widest history at each window dtype's
#: edge (7 / 8, 15 / 16, 31 / 32 and 62 bits), under a shorter one.
HISTORIES = (
    (2, 4, 8, 16, 32),
    (6,),
    (0, 1, 62),
    (1, 3, 5, 9),
    (10, 20, 40),
    (3, 7),
    (4, 8),
    (9, 15),
    (15, 16),
    (16, 31),
    (31, 32),
    (32, 62),
)


def _outcome_kinds(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "random": rng.random(n) < 0.5,
        "biased": rng.random(n) < 0.1,
        "taken": np.ones(n, dtype=bool),
        "not-taken": np.zeros(n, dtype=bool),
        "period-5": np.resize([True, True, False, True, False], n).astype(bool),
    }


def _assert_same_counts(outcomes, histories):
    got = _two_level_by_history(outcomes, histories)
    expected = two_level_by_history_per_width(outcomes, histories)
    assert list(got) == list(expected)
    for h in histories:
        assert type(got[h]) is float
        assert got[h] == expected[h], (h, got[h], expected[h])


@pytest.mark.parametrize("histories", HISTORIES, ids=str)
def test_every_short_length(histories):
    """Every outcome length from empty to past the longest history: each
    history on either side of ``n <= h``."""
    rng = np.random.default_rng([SEED, len(histories)])
    for n in range(71):
        for outcomes in _outcome_kinds(n, rng).values():
            _assert_same_counts(outcomes, histories)


@seed(SEED)
@_SETTINGS
@given(
    st.integers(0, 3000),
    st.sampled_from(HISTORIES),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_any_outcome_sequence(n, histories, p_taken, rng_seed):
    outcomes = np.random.default_rng(rng_seed).random(n) < p_taken
    _assert_same_counts(outcomes, histories)


@pytest.mark.parametrize("n", [32768, 40000])
def test_long_sequences_count_densely_and_sparsely(n):
    """Long enough that 16-bit histories take the dense count and 32-bit
    ones the sparse count, with patterns seen with both outcomes."""
    rng = np.random.default_rng([SEED, n])
    for outcomes in _outcome_kinds(n, rng).values():
        _assert_same_counts(outcomes, HISTORIES[0])


def _boundary_lengths(histories):
    """The lengths at which a history's count turns dense,
    ``(2 << h) == 4 * (n - h)``, and either side, for histories to 16."""
    for h in histories:
        if 0 < h <= 16:
            edge = h + (1 << (h - 1))
            yield from (edge - 1, edge, edge + 1)


@pytest.mark.parametrize("histories", HISTORIES, ids=str)
def test_lengths_at_the_dense_sparse_boundary(histories):
    rng = np.random.default_rng([SEED, len(histories), max(histories)])
    for n in sorted(set(_boundary_lengths(histories))):
        for outcomes in _outcome_kinds(n, rng).values():
            _assert_same_counts(outcomes, histories)


@pytest.mark.parametrize("n", [0, 1, 10, 62, 63, 200])
def test_every_history_is_checked_whatever_the_length(n):
    outcomes = np.ones(n, dtype=bool)
    with pytest.raises(ValueError, match="history_bits must be <= 62"):
        two_level_mispredicts(outcomes, 63)
    assert two_level_mispredicts(outcomes, 62) == two_level_by_history_per_width(
        outcomes, (62,)
    )[62]


# --- one count per distinct stream -------------------------------------------

WEIGHTS = (1.0, 0.5, 2.0, 1 / 3, 4.0)


@st.composite
def recorded_sites(draw):
    """One to six sites, each recorded in one to four weighted pieces (as
    perfbench records one piece per branch event), whose streams are drawn
    from: a random stream, a copy of it, the same stream with one outcome
    flipped (equal size, other content), and an unrelated one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 400))
    base = rng.random(n) < draw(st.floats(0.0, 1.0))
    flipped = base.copy()
    if n:
        flipped[rng.integers(n)] ^= True
    other = rng.random(draw(st.integers(0, 400))) < 0.5
    streams = (base, base.copy(), flipped, other)
    sites = []
    for i in range(draw(st.integers(1, 6))):
        stream = draw(st.sampled_from(streams))
        cuts = sorted(draw(st.lists(st.integers(0, stream.size), max_size=3)))
        pieces = np.split(stream, cuts)
        weights = draw(
            st.lists(st.sampled_from(WEIGHTS), min_size=len(pieces), max_size=len(pieces))
        )
        sites.append((f"site{i}", list(zip(pieces, weights))))
    return sites


def _recorded(kind, sites):
    model = BranchModel(kind)
    for site, pieces in sites:
        for outcomes, weight in pieces:
            model.record(site, outcomes, weight)
    return model


@pytest.mark.parametrize("branch_hints", (False, True))
@pytest.mark.parametrize("kind", ("static", "pentium_m", "tage"))
@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(recorded_sites(), st.floats(0.0, 5000.0))
def test_evaluate_matches_the_per_site_oracle(kind, branch_hints, sites, total):
    model = _recorded(kind, sites)
    got = model.evaluate(total_branches=total, branch_hints=branch_hints)
    expected = evaluate_per_site(model, total_branches=total, branch_hints=branch_hints)
    assert got.total_branches == expected.total_branches
    assert got.mispredicts == expected.mispredicts


@pytest.mark.parametrize("kind", ("static", "pentium_m", "tage"))
def test_each_distinct_stream_is_counted_once(kind, monkeypatch):
    """Equal streams under different weights (one recorded in pieces) share
    one count; an equal-size stream with other content gets its own."""
    rng = np.random.default_rng([SEED, 48])
    stream = rng.random(300) < 0.3
    flipped = stream.copy()
    flipped[17] ^= True
    sites = [
        ("a", [(stream, 1.0)]),
        ("b", [(stream[:100], 0.5), (stream[100:], 2.0)]),
        ("c", [(flipped, 1 / 3)]),
        ("d", [(stream.copy(), 4.0)]),
    ]
    model = _recorded(kind, sites)
    sizes = []
    count = BranchModel._site_mispredicts

    def counting(self, outcomes, branch_hints):
        sizes.append(outcomes.size)
        return count(self, outcomes, branch_hints)

    monkeypatch.setattr(BranchModel, "_site_mispredicts", counting)
    got = model.evaluate(total_branches=2000.0)
    assert sizes == [300, 300]
    sizes.clear()
    assert got == evaluate_per_site(model, total_branches=2000.0)
    assert len(sizes) == 4

"""Three encoder kernels against the bodies they replaced, ``==`` exactly.

* ``gop._inter_cost`` scores all 25 lookahead translations in one integer
  batch; ``tests.oracles.inter_cost_per_shift`` rolls the reference once per
  translation in float64. ``plan_gop`` scores each frame pair once.
* ``entropy._fold_batch`` walks only the nonzero levels in Python;
  ``tests.oracles.fold_batch_numpy`` computes every codeword in NumPy.
* ``quant.trellis_quantize`` computes its round-to-nearest start inline;
  ``tests.oracles.trellis_quantize_two_pass`` calls ``quantize`` for it.

Each pair must agree bit for bit — same float, same dtype, same bytes and
widths — on random, flat and saturated inputs and on every edge the folds
introduce: probes smaller than the wrap pad or not a multiple of 4, exact
rounding and rate-distortion ties, the largest coefficients a 16x16
residual makes, empty, all-zero, dense and tagged batches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec import gop
from repro.codec.entropy import _INT32_MAX, _INT32_MIN, BitWriter, _fold_batch
from repro.codec.gop import _inter_cost, _probe, plan_gop
from repro.codec.options import EncoderOptions
from repro.codec.quant import _level_bits, qstep, rd_lambda, trellis_quantize
from repro.codec.transform import forward_4x4
from repro.video.frame import FrameSequence
from repro.video.synthetic import SceneSpec, generate_scene
from tests.oracles import (
    fold_batch_numpy,
    inter_cost_per_shift,
    level_bits_log2,
    scene_change_score,
    trellis_quantize_two_pass,
)

SEED = 27
_SETTINGS = settings(max_examples=150, deadline=None)

# --- the lookahead -----------------------------------------------------------

#: Probe sizes: the transcode probe (112x64 luma), smaller than the +/-2
#: wrap pad, exactly one block, and not a multiple of 4 either way.
PROBE_SHAPES = ((32, 56), (1, 1), (3, 5), (4, 4), (33, 57), (5, 4), (4, 9))


def _luma(kind: str, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """A uint8 luma plane twice the probe size."""
    size = (2 * shape[0], 2 * shape[1])
    if kind == "random":
        return rng.integers(0, 256, size, dtype=np.uint8)
    if kind == "flat":
        return np.full(size, rng.integers(0, 256), dtype=np.uint8)
    # saturated: 0 / 255 only, the largest differences a probe can hold
    return (rng.integers(0, 2, size) * 255).astype(np.uint8)


def _assert_same_float(got: float, expected: float) -> None:
    assert type(got) is float
    assert got == expected


@pytest.mark.parametrize("shape", PROBE_SHAPES)
@pytest.mark.parametrize("cur_kind", ["random", "flat", "saturated"])
@pytest.mark.parametrize("ref_kind", ["random", "flat", "saturated"])
def test_inter_cost_matches_per_shift_loop(shape, cur_kind, ref_kind):
    rng = np.random.default_rng([SEED, *shape, len(cur_kind), len(ref_kind)])
    probe = _probe(_luma(cur_kind, shape, rng))
    ref = _probe(_luma(ref_kind, shape, rng))
    assert probe.shape == shape
    _assert_same_float(_inter_cost(probe, ref), inter_cost_per_shift(probe, ref))
    _assert_same_float(_inter_cost(probe, probe), inter_cost_per_shift(probe, probe))


@seed(SEED)
@_SETTINGS
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    data=st.data(),
)
def test_inter_cost_matches_per_shift_loop_on_any_probe(h, w, data):
    cur, ref = (
        data.draw(arrays(np.uint8, (2 * h, 2 * w), elements=st.integers(0, 255)))
        for _ in range(2)
    )
    # A moved copy of the reference, as well as unrelated content.
    dy, dx = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    moved = np.roll(ref, (dy, dx), axis=(0, 1))
    for a, b in ((cur, ref), (moved, ref)):
        pa, pb = _probe(a), _probe(b)
        _assert_same_float(_inter_cost(pa, pb), inter_cost_per_shift(pa, pb))


def _scene(cut_period: int, motion: float) -> FrameSequence:
    return generate_scene(
        SceneSpec(
            width=48, height=32, n_frames=12, scene_cut_period=cut_period,
            motion_magnitude=motion, texture_detail=0.5, noise_level=0.05,
            seed=SEED, name="lookahead",
        )
    )


_PLAN_OPTIONS = [
    EncoderOptions(scenecut=40, bframes=0),
    EncoderOptions(scenecut=40, bframes=3, b_adapt=1),
    EncoderOptions(scenecut=40, bframes=3, b_adapt=2),
    EncoderOptions(scenecut=0, bframes=4, b_adapt=2, keyint=5),
    EncoderOptions(scenecut=90, bframes=2, b_adapt=1),
]


@pytest.mark.parametrize(
    "options",
    _PLAN_OPTIONS,
    ids=lambda o: f"bframes{o.bframes}-badapt{o.b_adapt}-scenecut{o.scenecut}",
)
@pytest.mark.parametrize("cut_period", [0, 5])
@pytest.mark.parametrize("motion", [0.0, 0.3, 1.0])
def test_plan_scores_each_pair_once_and_plans_as_the_oracle(
    options, cut_period, motion, monkeypatch
):
    video = _scene(cut_period, motion)
    plan = plan_gop(video, options)
    probes = [_probe(f.luma) for f in video]
    scored: list[tuple[int, int]] = []

    def index_of(probe):
        return next(i for i, p in enumerate(probes) if np.array_equal(p, probe))

    def oracle(probe, ref_probe):
        scored.append((index_of(probe), index_of(ref_probe)))
        return inter_cost_per_shift(probe, ref_probe)

    monkeypatch.setattr(gop, "_inter_cost", oracle)
    assert plan_gop(video, options) == plan
    assert len(scored) == len(set(scored)), "a frame pair was scored twice"
    if cut_period and options.scenecut == 40:
        assert plan.scene_cuts == (5, 10)


def test_scene_change_score_is_the_plans_ratio():
    video = _scene(5, 0.3)
    a, b = video[5].luma, video[4].luma
    pa, pb = _probe(a), _probe(b)
    expected = inter_cost_per_shift(pa, pb) / gop._intra_cost(pa)
    _assert_same_float(scene_change_score(a, b), expected)


# --- the run-level fold --------------------------------------------------------


def _fold_both(blocks: np.ndarray, tags: list[int] | None, lead: int):
    """Bytes, bit count and widths from each fold, both writers ``lead``
    bits into a byte."""
    out = []
    for fold in (_fold_batch, fold_batch_numpy):
        writer = BitWriter()
        writer.append_bits(0b101, lead)
        widths = fold(writer, blocks, tags)
        out.append((writer.getvalue(), writer.bit_count, widths))
    return out


def _assert_same_fold(blocks, tags=None, lead=0):
    got, expected = _fold_both(blocks, tags, lead)
    assert got == expected
    assert all(type(w) is int for w in got[2])


_LEVELS = st.one_of(
    st.integers(-3, 3),
    st.integers(-600, 600),
    st.integers(_INT32_MIN, _INT32_MAX),
    st.sampled_from([_INT32_MIN, _INT32_MAX, -1, 1]),
)


@seed(SEED)
@_SETTINGS
@given(
    n=st.integers(0, 24),
    tagged=st.booleans(),
    lead=st.integers(0, 3),
    data=st.data(),
)
def test_fold_matches_numpy_fold(n, tagged, lead, data):
    density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    levels = data.draw(arrays(np.int64, (n, 4, 4), elements=_LEVELS))
    keep = data.draw(arrays(np.float64, (n, 4, 4), elements=st.floats(0, 1)))
    blocks = np.where(keep < density, levels, 0).astype(np.int32)
    tags = (
        data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
        if tagged
        else None
    )
    _assert_same_fold(blocks, tags, lead)


@pytest.mark.parametrize("tagged", [False, True])
@pytest.mark.parametrize(
    "blocks",
    [
        np.zeros((0, 4, 4), np.int32),
        np.zeros((1, 4, 4), np.int32),
        np.zeros((16, 4, 4), np.int32),
        np.full((16, 4, 4), -7, np.int32),
        np.full((3, 4, 4), _INT32_MAX, np.int32),
        np.full((3, 4, 4), _INT32_MIN, np.int32),
        np.eye(16, dtype=np.int32).reshape(16, 4, 4)[::-1].copy(),
    ],
    ids=["n=0", "one-zero", "all-zero", "dense", "int32-max", "int32-min", "one-each"],
)
def test_fold_matches_numpy_fold_on_edge_batches(blocks, tagged):
    tags = list(range(len(blocks))) if tagged else None
    for lead in (0, 5):
        _assert_same_fold(blocks, tags, lead)


# --- trellis -------------------------------------------------------------------


def _extreme_coefficients() -> np.ndarray:
    """Transforms of the largest residuals a 16x16 macroblock holds: flat,
    alternating-row, alternating-column and checkerboard +/-255 blocks
    (the DC reaches 1020), both signs."""
    alt = np.array([1.0, -1.0, 1.0, -1.0])
    ones = np.ones(4)
    patterns = [
        np.outer(ones, ones),
        np.outer(alt, ones),
        np.outer(ones, alt),
        np.outer(alt, alt),
        np.outer([1, 1, -1, -1], [1, -1, -1, 1]),
    ]
    residuals = 255.0 * np.stack(patterns + [-p for p in patterns])
    return forward_4x4(residuals)


def _tie_coefficients(qp: int, rng: np.random.Generator) -> np.ndarray:
    """Coefficients at exact k + 1/2 quantizer steps, both signs, and the
    floats either side of them."""
    step = qstep(qp)
    k = rng.integers(0, 40, (16, 4, 4)) + 0.5
    ties = k * step * rng.choice([-1.0, 1.0], (16, 4, 4))
    return np.concatenate(
        [ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)]
    )


def _rd_tie_coefficients(qp: int) -> np.ndarray:
    """Coefficients at which two rate-distortion costs tie exactly in
    float64 (``<`` must keep the level): keeping 1 vs zeroing, and keeping
    2 vs demoting to 1. Not every qp has one; both signs of each."""
    step, lam = qstep(qp), rd_lambda(qp)

    def cost(a, m):
        return (a - m * step) ** 2 + lam * level_bits_log2(np.full_like(a, m))

    hits = []
    for kept, other in ((1, 0), (2, 1)):
        # Where the two parabolas cross, then every float 2000 ulps around it.
        point = (
            (kept**2 - other**2) * step**2
            + lam * (level_bits_log2(kept) - level_bits_log2(other))
        ) / (2 * (kept - other) * step)
        near = point + np.arange(-2000, 2001) * np.spacing(point)
        hits.append(near[cost(near, kept) == cost(near, other)])
    ties = np.concatenate(hits)
    return np.concatenate([ties, -ties])[:, None, None] * np.ones((1, 4, 4))


def _assert_same_levels(coeffs, qp, level):
    got = trellis_quantize(coeffs, qp, level=level)
    expected = trellis_quantize_two_pass(coeffs, qp, level=level)
    assert got.dtype == expected.dtype == np.int32
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_trellis_matches_two_pass_on_every_qp(level):
    rng = np.random.default_rng([SEED, level])
    extremes = _extreme_coefficients()
    for qp in range(52):
        noise = rng.normal(0.0, rng.choice([1.0, 20.0, 300.0]), (32, 4, 4))
        for coeffs in (
            _tie_coefficients(qp, rng),
            _rd_tie_coefficients(qp),
            extremes,
            noise,
            np.zeros((4, 4, 4)),
            noise[:1],
        ):
            _assert_same_levels(coeffs, qp, level)


@seed(SEED)
@_SETTINGS
@given(
    qp=st.integers(0, 51),
    level=st.sampled_from([0, 1, 2]),
    coeffs=arrays(
        np.float64,
        st.tuples(st.integers(0, 16), st.just(4), st.just(4)),
        elements=st.floats(-1100.0, 1100.0, allow_nan=False),
    ),
)
def test_trellis_matches_two_pass(qp, level, coeffs):
    _assert_same_levels(coeffs, qp, level)


def test_level_bits_is_the_log2_form_for_every_magnitude_to_2_16():
    mags = np.arange(2**16 + 1, dtype=np.float64)
    for levels in (mags, -mags):
        got = _level_bits(levels)
        assert np.array_equal(got, level_bits_log2(levels))

"""The encoder's float32 interpolation planes are exact on the 1/16 grid.

``PaddedReference`` caches each quarter-pel phase of a reference as a
float32 whole plane. Every value such a plane holds is a multiple of 1/16
in [0, 255] — a horizontal lerp of pixels gives quarters, a vertical lerp
of those sixteenths — so it needs at most 12 significant bits: float32
(24) rounds nothing, float16 (11) rounds ``4079 / 16``. The laws hold the
float32 form to the same passes in float64:

* every phase plane equals the two passes evaluated in float64;
* the encoder's ``fetch_prediction`` (a float32 view at fractional
  vectors) equals the decoder's float64 ``_fetch`` at every quarter-pel
  vector within +-2 px of a block, so encoder and decoder agree across
  the dtype boundary;
* ``subpel_refine``'s costs — SAD and ``satd_16x16`` of a float32
  difference — equal the float64 ones.

Drawn planes always hold a 0 and a 255; the explicit examples hold the
``4079 / 16`` corner and the largest SATD a 16x16 difference can have.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec import decoder
from repro.codec.motion import PaddedReference, fetch_prediction
from repro.codec.transform import satd_16x16
from repro.codec.types import MotionVector

PAD = 3  # a 17x17 fetch at +-2 px from any block of the plane stays inside
PHASES = [(fy, fx) for fy in range(4) for fx in range(4)]
_SETTINGS = settings(max_examples=30, deadline=None)

#: 255 beside one 254: phase (1, 1) at the corner reads
#: (255 * 15 + 254) / 16 = 4079 / 16, which float16 cannot hold.
CORNER = np.full((17, 17), 255, dtype=np.uint8)
CORNER[1, 1] = 254
#: Differences of +-255 in a bent pattern on every 4x4 tile: all sixteen
#: Hadamard coefficients of a tile are +-4 * 255, the largest SATD a block
#: can have. ``BENT_CUR`` against ``BENT_PLANE``'s phase (0, 0) block.
_TILE = np.not_equal.outer(np.arange(4) == 3, np.arange(4) == 3)
BENT_CUR = (255 * np.tile(_TILE, (4, 4))).astype(np.uint8)
BENT_PLANE = np.zeros((17, 17), dtype=np.uint8)
BENT_PLANE[:16, :16] = 255 - BENT_CUR


@st.composite
def planes(draw) -> np.ndarray:
    """A uint8 plane of 17-24 px a side, every pixel drawn, with a 0 and a
    255 at drawn places."""
    h, w = draw(st.integers(17, 24)), draw(st.integers(17, 24))
    plane = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 255), fill=st.nothing()))
    flat = plane.reshape(-1)
    lo = draw(st.integers(0, flat.size - 1))
    flat[lo] = 0
    flat[(lo + draw(st.integers(1, flat.size - 1))) % flat.size] = 255
    return plane


def _passes_f64(padded: np.ndarray, fy: int, fx: int) -> np.ndarray:
    """``PaddedReference._phase_plane``'s two passes, in float64."""
    plane = padded.astype(np.float64)
    if fx:
        plane = plane[:, :-1] * (1 - fx * 0.25) + plane[:, 1:] * (fx * 0.25)
    if fy:
        plane = plane[:-1] * (1 - fy * 0.25) + plane[1:] * (fy * 0.25)
    return plane


@_SETTINGS
@given(planes())
@example(CORNER)
def test_every_phase_plane_is_the_float64_passes(plane):
    ref = PaddedReference.from_plane(plane, PAD)
    got = {phase: ref._phase_plane(*phase) for phase in PHASES}
    for phase, phase_plane in got.items():
        assert np.array_equal(phase_plane, _passes_f64(ref.plane, *phase)), phase
    assert {p.dtype for p in got.values()} == {np.dtype(np.float32)}


@_SETTINGS
@given(planes(), st.data())
@example(CORNER, None)
def test_encoder_fetch_equals_decoder_fetch(plane, data):
    ref = PaddedReference.from_plane(plane, PAD)
    h, w = plane.shape
    blocks = [(0, 0), (h - 16, w - 16)]
    if data is not None:
        blocks.append((data.draw(st.integers(0, h - 16)), data.draw(st.integers(0, w - 16))))
    for y, x in blocks:
        for dy in range(-8, 9):
            for dx in range(-8, 9):
                got = fetch_prediction(ref, y, x, dx, dy)
                want = decoder._fetch(ref, y, x, MotionVector(dx, dy))
                assert np.array_equal(got, want), (y, x, dx, dy)


@_SETTINGS
@given(planes(), arrays(np.uint8, (16, 16), elements=st.integers(0, 255)))
@example(CORNER, np.zeros((16, 16), dtype=np.uint8))
@example(BENT_PLANE, BENT_CUR)
def test_subpel_costs_equal_float64_costs(plane, cur):
    ref = PaddedReference.from_plane(plane, PAD)
    at = np.s_[PAD : PAD + 16, PAD : PAD + 16]  # the block at the plane's origin
    for fy, fx in PHASES:
        d32 = cur.astype(np.float32) - ref._phase_plane(fy, fx)[at]
        d64 = cur.astype(np.float64) - _passes_f64(ref.plane, fy, fx)[at]
        assert d32.dtype == np.float32
        assert satd_16x16(d32) == satd_16x16(d64), (fy, fx)
        assert float(np.abs(d32).sum()) == float(np.abs(d64).sum()), (fy, fx)

"""Failure injection: the decoder must fail cleanly on damaged streams,
and the CLI must degrade a sweep with permanently-failing cells to a
partial result instead of aborting.

A production transcoder receives truncated uploads, bit-flipped network
payloads, and hostile inputs. The decoder is allowed to reject them with
``BitstreamError`` (a ``ValueError``; running off the end raises its
subclass ``TruncatedBitstreamError``, also an ``EOFError``) or, for
payload-area corruption, to decode *something* of the right geometry —
it must never crash with any other exception type, hang, or return
malformed frames.

On the pipeline side, a cell whose compute raises a fatal (or
retry-exhausted) exception must not take the campaign down with it: the
sweep completes every other cell, ``run.json`` reports ``status:
"partial"`` with the failed cell's exception class, and the process
exits with code 3 — after which re-running the same command against
the same ``--cache-dir`` finishes the job.
"""

import json

import numpy as np
import pytest

from repro.codec.decoder import decode
from repro.codec.encoder import encode
from repro.codec.entropy import (
    BitstreamError,
    BitWriter,
    TruncatedBitstreamError,
    write_se,
    write_ue,
)
from repro.codec.options import EncoderOptions
from repro.codec.types import MODE_IDS, MBMode
from tests.oracles import CODECS

_ALLOWED = (BitstreamError,)


@pytest.fixture(scope="module")
def good_stream(request):
    tiny = request.getfixturevalue("tiny_video")
    result = encode(tiny, EncoderOptions(crf=23, refs=2, bframes=1))
    return result.stream.bitstream, tiny


class TestTruncation:
    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_truncated_stream_fails_cleanly(self, good_stream, keep_fraction):
        data, _video = good_stream
        truncated = data[: int(len(data) * keep_fraction)]
        with pytest.raises(_ALLOWED):
            decode(truncated)

    def test_truncation_is_also_an_eof_error(self, good_stream):
        """Callers written against ``except (ValueError, EOFError)`` keep
        working: the typed errors derive from both."""
        data, _video = good_stream
        with pytest.raises(TruncatedBitstreamError) as excinfo:
            decode(data[: len(data) // 2])
        assert isinstance(excinfo.value, EOFError)
        assert isinstance(excinfo.value, ValueError)

    def test_empty_stream(self):
        with pytest.raises(_ALLOWED):
            decode(b"")

    def test_single_byte(self):
        with pytest.raises(_ALLOWED):
            decode(b"\xff")


class TestBitFlips:
    def _flip(self, data: bytes, byte_index: int, bit: int) -> bytes:
        out = bytearray(data)
        out[byte_index] ^= 1 << bit
        return bytes(out)

    def test_header_corruption_detected_or_decoded(self, good_stream):
        data, video = good_stream
        for byte_index in range(min(4, len(data))):
            corrupted = self._flip(data, byte_index, 3)
            try:
                result = decode(corrupted)
            except _ALLOWED:
                continue
            # If it decodes, output must be structurally valid.
            assert len(result.video) >= 1

    @pytest.mark.parametrize("seed", range(64))
    def test_payload_corruption_never_crashes_unexpectedly(
        self, good_stream, seed
    ):
        data, video = good_stream
        rng = np.random.default_rng(seed)
        pos = int(rng.integers(len(data) // 2, len(data)))
        corrupted = self._flip(data, pos, int(rng.integers(0, 8)))
        try:
            result = decode(corrupted)
        except _ALLOWED:
            return
        for frame in result.video:
            assert frame.luma.shape == (video.height, video.width)
            assert frame.luma.dtype == np.uint8


class TestGarbage:
    @pytest.mark.parametrize("seed", range(32))
    def test_random_bytes_rejected(self, seed):
        rng = np.random.default_rng(seed)
        garbage = rng.integers(0, 256, 512).astype(np.uint8).tobytes()
        try:
            result = decode(garbage)
        except _ALLOWED:
            return
        # Vanishingly unlikely, but if it parses it must be well-formed.
        assert len(result.video) >= 1

    def test_all_zeros(self):
        with pytest.raises(_ALLOWED):
            decode(b"\x00" * 256)

    def test_all_ones(self):
        try:
            result = decode(b"\xff" * 256)
        except _ALLOWED:
            return
        assert len(result.video) >= 1


def _stream(*frames, size=16) -> bytes:
    """A hand-written stream of ``size`` x ``size`` frames; each frame is
    a function that writes itself (see :func:`_frame`)."""
    w = BitWriter()
    for value in (size, size, 30_000, len(frames), 0):  # ..., deblock off
        write_ue(w, value)
    write_se(w, 0)  # deblock offset
    write_ue(w, 0)  # no chroma
    for frame in frames:
        frame(w)
    return w.getvalue()


def _frame(disp, ftype_id, *mbs, qp=20):
    """One frame; each macroblock is a list of (write function, value)."""

    def write(w):
        for value in (disp, ftype_id, qp):
            write_ue(w, value)
        for mb in mbs:
            for fn, value in mb:
                fn(w, value)

    return write


def _blocks(levels=()):
    """A macroblock's 16 blocks: the first holds ``levels`` ((run, level)
    pairs), the other 15 are empty."""
    first = [(write_ue, len(levels))]
    for run, level in levels:
        first += [(write_ue, run), (write_se, level)]
    return first + [(write_ue, 0)] * 15


def _intra16(mode=0, qp_delta=0, levels=()):
    head = [(write_ue, MODE_IDS[MBMode.INTRA_16X16]), (write_ue, mode)]
    return head + [(write_se, qp_delta)] + _blocks(levels)


def _inter16(dx, dy, ref=0):
    head = [(write_ue, MODE_IDS[MBMode.INTER_16X16]), (write_ue, ref)]
    return head + [(write_se, dx), (write_se, dy), (write_se, 0)] + _blocks()


def _bi(ref0=0):
    head = [(write_ue, MODE_IDS[MBMode.BI]), (write_ue, ref0)]
    # Two MV deltas each way, then the QP delta.
    return head + [(write_se, 0)] * 5 + _blocks()


def _intra4(mode, levels=()):
    """Sixteen (mode id, block) pairs, every one with mode id ``mode``; the
    first block holds ``levels``."""
    blocks = _blocks(levels)
    pairs = []
    for i in range(16):
        body = blocks[: 1 + 2 * len(levels)] if i == 0 else [(write_ue, 0)]
        pairs += [(write_ue, mode), *body]
    return [(write_ue, MODE_IDS[MBMode.INTRA_4X4]), (write_se, 0)] + pairs


_SKIP_MB = [(write_ue, MODE_IDS[MBMode.SKIP])]
_I, _P, _B = 0, 1, 2


@pytest.mark.parametrize("codec", CODECS)
class TestTypedRejections:
    """Each hole the typed contract closed, hit with a hand-written stream:
    before, these were a ``KeyError``, an ``AssertionError``, an enum
    ``ValueError``, a silently wrapped slice, a ``check_range``
    ``ValueError`` and an ``OverflowError``."""

    def _rejects(self, codec, data, match):
        with CODECS[codec]():
            with pytest.raises(BitstreamError, match=match):
                decode(data)

    def test_handwritten_streams_decode(self, codec):
        """The builders above write valid syntax, so each rejection below
        is caused by its one bad value."""
        data = _stream(
            _frame(0, _I, _intra16(levels=[(0, 40), (2, -3)])),
            _frame(2, _P, _inter16(6, -3)),
            _frame(1, _B, _bi()),
            _frame(3, _P, _SKIP_MB),
        )
        with CODECS[codec]():
            result = decode(data)
        assert [f.luma.shape for f in result.video] == [(16, 16)] * 4
        assert [t.value for t in result.frame_types] == ["I", "B", "P", "P"]

    def test_unknown_frame_type_id(self, codec):
        self._rejects(codec, _stream(_frame(0, 3, _intra16())), "frame type")

    def test_bi_macroblock_without_future_anchor(self, codec):
        data = _stream(_frame(0, _I, _intra16()), _frame(1, _B, _bi()))
        self._rejects(codec, data, "missing anchor")

    def test_unknown_intra16_mode_id(self, codec):
        self._rejects(codec, _stream(_frame(0, _I, _intra16(mode=4))), "intra")

    @pytest.mark.parametrize("mode", [3, 7, 1000])
    def test_unknown_intra4_mode_id(self, codec, mode):
        data = _stream(_frame(0, _I, _intra4(mode)))
        self._rejects(codec, data, "unknown intra 4x4 mode id")

    def test_intra4_direction_without_its_neighbour_predicts_dc(self, codec):
        """V with no top neighbour, H with no left one: the block predicts
        DC, exactly as a DC block there would (the documented fallback)."""
        with CODECS[codec]():
            luma = {
                mode: decode(
                    _stream(_frame(0, _I, _intra4(mode, levels=[(0, 40)])))
                ).video.frames[0].luma
                for mode in (0, 1, 2)
            }
        assert luma[0][0, 0] != 128  # the residual reaches the neighbours
        assert np.array_equal(luma[1][:4], luma[0][:4])  # V on the top edge
        assert np.array_equal(luma[2][:, :4], luma[0][:, :4])  # H on the left edge

    @pytest.mark.parametrize(
        "dx, dy",
        [(-4 * 200, 0), (0, 4 * 200), (4 * 88, 0), (0, 4 * 88), (-4 * 89, 0),
         (0, -4 * 89), (2**40, 0)],
    )
    def test_motion_vector_outside_the_reference_border(self, codec, dx, dy):
        data = _stream(_frame(0, _I, _intra16()), _frame(1, _P, _inter16(dx, dy)))
        self._rejects(codec, data, "reference border")

    def test_motion_vector_at_the_border_is_accepted(self, codec):
        """The check demands one spare row and column on the far side and
        nothing more; what it admits is an edge-replicated fetch."""
        for dx, dy in [(4 * 87, -4 * 88), (-4 * 88, 4 * 87), (4 * 87 + 3, 4 * 87 + 1)]:
            data = _stream(
                _frame(0, _I, _intra16()), _frame(1, _P, _inter16(dx, dy))
            )
            with CODECS[codec]():
                assert len(decode(data).video) == 2

    def test_skip_predictor_outside_the_reference_border(self, codec):
        """A vector that is legal where it was coded is re-applied, as the
        SKIP predictor, one macroblock to the right, where it is not."""
        intra = _frame(0, _I, *[_intra16()] * 4)
        # 32 wide, 88 of padding: x + 100 + 16 < 120 holds at x = 0 only.
        moved = _inter16(4 * 100, 0)
        fine = _stream(intra, _frame(1, _P, moved, *[_intra16()] * 3), size=32)
        with CODECS[codec]():
            assert len(decode(fine).video) == 2
        data = _stream(
            intra, _frame(1, _P, moved, _SKIP_MB, *[_intra16()] * 2), size=32
        )
        self._rejects(codec, data, "reference border")

    def test_qp_out_of_range(self, codec):
        self._rejects(codec, _stream(_frame(0, _I, _intra16(), qp=52)), "QP")
        data = _stream(_frame(0, _I, _intra16(qp_delta=-21)))
        self._rejects(codec, data, "QP")

    def test_coefficient_level_beyond_int32(self, codec):
        data = _stream(_frame(0, _I, _intra16(levels=[(0, 2**31)])))
        self._rejects(codec, data, "level out of range")
        fits = _stream(_frame(0, _I, _intra16(levels=[(0, -(2**31))])))
        with CODECS[codec]():
            assert len(decode(fits).video) == 1


class TestCliPartialResults:
    """A permanently-failing cell yields exit code 3, a complete set of
    surviving cells, and a ``failures`` entry in ``run.json``."""

    @pytest.fixture(autouse=True)
    def _trimmed_quick_scale(self, monkeypatch):
        """Shrink the `quick` scale to a 2x2 grid of tiny cells and drop
        the runner memo the CLI leaves behind."""
        from repro.experiments import runner

        trimmed = runner.QUICK.with_updates(
            name="quick",
            width=48,
            height=32,
            n_frames=4,
            crf_values=(23, 40),
            refs_values=(1, 2),
        )
        monkeypatch.setitem(runner.SCALES, "quick", trimmed)
        yield
        runner._RUNNERS.clear()

    def _clear_memo(self):
        from repro.experiments import runner

        runner._RUNNERS.clear()

    _PLAN = "sweep.compute,match=crf=40:refs=2,raise=ValueError"

    def test_failing_cell_exits_nonzero_but_complete(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "telemetry"
        code = main([
            "fig3",
            "--no-cache",
            "--telemetry", str(out),
            "--fault-plan", self._PLAN,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "PARTIAL" in err and "ValueError" in err
        # Nothing was persisted, and the hint says so.
        assert "were not persisted; pass --cache-dir" in err
        assert "--resume" not in err and "checkpoint" not in err

        run = json.loads((out / "run.json").read_text())
        assert run["status"] == "partial"
        assert len(run["failures"]) == 1
        failure = run["failures"][0]
        assert failure["error"] == "ValueError"
        assert (failure["crf"], failure["refs"]) == (40, 2)
        assert failure["attempts"] == 1  # fatal: no retries burned
        # Every computable cell ran exactly once before the failure report.
        assert run["metrics"]["sweep.profiles"] == 3
        assert run["metrics"]["sweep.failed_cells"] == 1

    def test_resume_after_partial_finishes_the_sweep(self, tmp_path, capsys):
        """Resume = re-run the same command with the same --cache-dir."""
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        command = ["fig3", "--cache-dir", str(cache_dir)]
        assert main(["fig3", "--no-cache"]) == 0
        clean = capsys.readouterr().out

        self._clear_memo()
        assert main(command + ["--fault-plan", self._PLAN]) == 3
        err = capsys.readouterr().err
        assert f"in the result cache at {cache_dir}; re-run the same" in err

        self._clear_memo()  # a fresh process would have no memo either
        out = tmp_path / "rerun"
        assert main(command + ["--telemetry", str(out)]) == 0
        assert _without_timing(capsys.readouterr().out) == _without_timing(clean)
        run = json.loads((out / "run.json").read_text())
        assert run["status"] == "ok"
        assert "failures" not in run
        # Encoder-call counting: only the failed cell recomputed.
        assert run["metrics"]["sweep.disk_hits"] == 3
        assert run["metrics"]["sweep.profiles"] == 1


def _without_timing(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if "done in" not in line]

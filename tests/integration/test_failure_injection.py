"""Failure injection: the decoder must fail cleanly on damaged streams,
and the CLI must degrade a sweep with permanently-failing cells to a
partial result instead of aborting.

A production transcoder receives truncated uploads, bit-flipped network
payloads, and hostile inputs. The decoder is allowed to reject them
(``ValueError``/``EOFError``) or, for payload-area corruption, to decode
*something* of the right geometry — it must never crash with an
unexpected exception type, hang, or return malformed frames.

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
from repro.codec.options import EncoderOptions

_ALLOWED = (ValueError, EOFError, KeyError, IndexError)


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

    @pytest.mark.parametrize("seed", range(8))
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
    @pytest.mark.parametrize("seed", range(5))
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


class TestCliPartialResults:
    """A permanently-failing cell yields exit code 3, a complete set of
    surviving cells, and a ``failures`` entry in ``run.json``."""

    @pytest.fixture(autouse=True)
    def _trimmed_quick_scale(self, monkeypatch):
        """Shrink the `quick` scale to a 2x2 grid of tiny cells and undo
        every piece of process-wide state the CLI configures."""
        from repro import resilience
        from repro.experiments import parallel, runner

        trimmed = runner.QUICK.with_updates(
            name="quick",
            width=48,
            height=32,
            n_frames=4,
            crf_values=(23, 40),
            refs_values=(1, 2),
        )
        monkeypatch.setitem(runner.SCALES, "quick", trimmed)
        resilience.configure(
            retry=resilience.RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            )
        )
        yield
        runner._RUNNERS.clear()
        parallel.configure(jobs=None, cache_dir=None)
        resilience.reset()

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

"""Backend-switch semantics: selection precedence, unknown names, and
once-per-encode binding."""

from __future__ import annotations

import pytest

from repro.api.settings import Settings
from repro.codec import kernels
from repro.codec.encoder import encode
from repro.codec.entropy import BitWriter
from repro.codec.options import EncoderOptions
from repro.video.synthetic import SceneSpec, generate_scene


@pytest.fixture(autouse=True)
def _reset_backend(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    kernels.select_backend(None)
    yield
    # Rebind from a clean environment so no test leaks its backend into
    # the flags later tests' direct kernel calls read.
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    kernels.select_backend(None)


def test_default_backend_is_vectorized():
    assert kernels.active_backend() == "vectorized"
    assert kernels.is_vectorized()


def test_builtin_backends_registered_in_order():
    assert kernels.KERNEL_BACKENDS == ("reference", "vectorized")
    assert tuple(b.name for b in kernels.all_backends()) == kernels.KERNEL_BACKENDS


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "reference")
    assert kernels.active_backend() == "reference"
    assert not kernels.is_vectorized()
    monkeypatch.setenv("REPRO_KERNELS", "  Vectorized  ")
    assert kernels.active_backend() == "vectorized"


def test_env_var_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "simd")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.active_backend()


def test_select_backend_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "vectorized")
    kernels.select_backend("reference")
    assert kernels.active_backend() == "reference"
    kernels.select_backend(None)
    assert kernels.active_backend() == "vectorized"


def test_select_backend_rejects_unknown_eagerly():
    with pytest.raises(ValueError, match="reference, vectorized"):
        kernels.select_backend("scalar")
    # The failed call must not have clobbered the selection.
    assert kernels.active_backend() == kernels.DEFAULT_BACKEND


def test_backend_scope_nesting_innermost_wins():
    kernels.select_backend("vectorized")
    with kernels.backend_scope("reference"):
        assert kernels.active_backend() == "reference"
        assert not kernels.is_vectorized()
        with kernels.backend_scope("vectorized"):
            assert kernels.active_backend() == "vectorized"
            assert kernels.is_vectorized()
        assert kernels.active_backend() == "reference"
        assert not kernels.is_vectorized()
    assert kernels.active_backend() == "vectorized"


def test_backend_scope_restores_on_error():
    with pytest.raises(RuntimeError):
        with kernels.backend_scope("reference"):
            raise RuntimeError("boom")
    assert kernels.active_backend() == "vectorized"


def test_backend_scope_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        with kernels.backend_scope("fast"):
            pass  # pragma: no cover


@pytest.mark.parametrize(
    "how",
    ["validate_backend", "select_backend", "backend_scope", "REPRO_KERNELS",
     "Settings"],
)
def test_removed_numba_name_is_rejected_like_any_unknown(how, monkeypatch):
    with pytest.raises(
        ValueError,
        match="unknown kernel backend 'numba'.*"
              "expected one of reference, vectorized$",
    ):
        if how == "REPRO_KERNELS":
            monkeypatch.setenv("REPRO_KERNELS", "numba")
            kernels.active_backend()
        elif how == "backend_scope":
            with kernels.backend_scope("numba"):
                pass  # pragma: no cover
        elif how == "Settings":
            Settings(kernels="numba")
        else:
            getattr(kernels, how)("numba")


def test_bad_env_does_not_break_scope_exit_or_reset(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "simd")
    with kernels.backend_scope("reference"):
        assert not kernels.is_vectorized()
    kernels.select_backend(None)  # must not raise; the entry point will
    with pytest.raises(ValueError, match="reference, vectorized"):
        kernels.active_backend()


class _CountingEnviron(dict):
    """``os.environ`` stand-in that counts ``REPRO_KERNELS`` lookups."""

    reads = 0

    def get(self, key, default=None):
        if key == "REPRO_KERNELS":
            self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        if key == "REPRO_KERNELS":
            self.reads += 1
        return super().__getitem__(key)


def _scene(n_frames: int, width: int = 48, height: int = 32):
    return generate_scene(
        SceneSpec(width=width, height=height, n_frames=n_frames, seed=1, name="k")
    )


def test_encode_reads_env_once_and_rebinds_between_encodes(monkeypatch):
    """Dispatch is bound per ``encode()``: the environment is consulted a
    constant number of times however many frames and macroblocks there
    are, yet a flip between two encodes takes effect on the second."""
    import os

    environ = _CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    opts = EncoderOptions(crf=30, refs=1)

    reads = []
    for video in (_scene(2), _scene(5, width=80, height=48)):
        before = environ.reads
        encode(video, opts)
        reads.append(environ.reads - before)
    assert reads[0] == reads[1] <= 2, reads

    bit_writes = []
    write_bit = BitWriter.write_bit

    def counting_write_bit(self, bit):
        bit_writes.append(bit)
        write_bit(self, bit)

    monkeypatch.setattr(BitWriter, "write_bit", counting_write_bit)
    environ["REPRO_KERNELS"] = "reference"
    ref = encode(_scene(2), opts)
    assert bit_writes  # only the reference bodies emit bit by bit
    assert not kernels.is_vectorized()
    bit_writes.clear()
    environ["REPRO_KERNELS"] = "vectorized"
    vec = encode(_scene(2), opts)
    assert not bit_writes
    assert kernels.is_vectorized()
    assert ref.stream.bitstream == vec.stream.bitstream

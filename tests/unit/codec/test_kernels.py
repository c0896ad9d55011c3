"""Backend-switch semantics: scope over selection, unknown names, and
binding when the selection changes — never from the environment, which
reaches the switch only through ``Settings``."""

from __future__ import annotations

import pytest

from repro.api.settings import Settings
from repro.codec import kernels
from repro.codec.encoder import encode
from repro.codec.entropy import BitWriter
from repro.codec.options import EncoderOptions
from repro.video.synthetic import SceneSpec, generate_scene


@pytest.fixture(autouse=True)
def _default_backend(monkeypatch):
    """Start from the default whatever the session's ``REPRO_KERNELS``
    (the conftest fixture re-installs the environment's afterwards)."""
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    kernels.select_backend(kernels.DEFAULT_BACKEND)


def test_default_backend_is_vectorized():
    assert kernels.active_backend() == "vectorized"
    assert kernels.is_vectorized()


def test_builtin_backends_registered_in_order():
    assert kernels.KERNEL_BACKENDS == ("reference", "vectorized")
    assert tuple(b.name for b in kernels.all_backends()) == kernels.KERNEL_BACKENDS


def test_env_var_selects_backend(monkeypatch):
    # ... through Settings, the one reader, and only when it is applied.
    monkeypatch.setenv("REPRO_KERNELS", "reference")
    assert kernels.active_backend() == "vectorized"
    Settings.from_env().apply()
    assert kernels.active_backend() == "reference"
    assert not kernels.is_vectorized()
    monkeypatch.setenv("REPRO_KERNELS", "  Vectorized  ")
    Settings.from_env().apply()
    assert kernels.active_backend() == "vectorized"
    assert kernels.is_vectorized()


def test_env_var_rejects_unknown(monkeypatch):
    # Reported where it is read; the switch itself never sees it.
    monkeypatch.setenv("REPRO_KERNELS", "simd")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        Settings.from_env()
    assert kernels.active_backend() == kernels.DEFAULT_BACKEND


def test_select_backend_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "vectorized")
    kernels.select_backend("reference")
    assert kernels.active_backend() == "reference"
    assert not kernels.is_vectorized()


def test_select_backend_takes_a_name():
    # No "revert to wherever the value used to come from" spelling.
    with pytest.raises(ValueError, match="unknown kernel backend None"):
        kernels.select_backend(None)


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
            Settings.from_env()
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
    assert kernels.is_vectorized()
    Settings().apply()  # "reset" = the built-in defaults; no bind can fail
    assert kernels.active_backend() == kernels.DEFAULT_BACKEND
    with pytest.raises(ValueError, match="reference, vectorized"):
        Settings.from_env()


def _scene(n_frames: int, width: int = 48, height: int = 32):
    return generate_scene(
        SceneSpec(width=width, height=height, n_frames=n_frames, seed=1, name="k")
    )


def test_encode_never_reads_env_and_rebinds_on_selection(monkeypatch):
    """Dispatch is bound when the selection changes: ``encode()`` never
    consults the environment (a poisoned one would raise), and a
    selection made between two encodes takes effect on the second."""
    import os

    class _Poisoned(dict):
        def get(self, key, default=None):
            raise AssertionError(f"encode() read ${key}")

        __getitem__ = get

    opts = EncoderOptions(crf=30, refs=1)
    bit_writes = []
    write_bit = BitWriter.write_bit

    def counting_write_bit(self, bit):
        bit_writes.append(bit)
        write_bit(self, bit)

    monkeypatch.setattr(BitWriter, "write_bit", counting_write_bit)
    monkeypatch.setattr(os, "environ", _Poisoned(REPRO_KERNELS="simd"))
    kernels.select_backend("reference")
    ref = encode(_scene(2), opts)
    assert bit_writes  # only the reference bodies emit bit by bit
    bit_writes.clear()
    kernels.select_backend("vectorized")
    vec = encode(_scene(2), opts)
    assert not bit_writes
    assert ref.stream.bitstream == vec.stream.bitstream

"""Zero-copy frame transport between the sweep parent and its workers.

Without this layer every worker process decodes its own copy of each
clip (deterministically, so results are identical — but at N x the
decode time and N x the plane memory for an N-worker pool). The
transport publishes each clip's planes once, from the parent, into
:mod:`multiprocessing.shared_memory` segments; forked workers attach
NumPy views directly onto the shared pages — no pickling, no per-worker
decode, one physical copy of every plane.

Design constraints, in order:

1. **Byte-identity** — a worker reading shared planes sees exactly the
   arrays the parent decoded (the synthetic decoder is deterministic, so
   the shm path and the per-worker-decode fallback produce identical
   sweep payloads; the equivalence test asserts it).
2. **Safe fallback** — any failure to create, publish, or attach a
   segment logs once (visibly, to stderr) and degrades to the historical
   per-worker decode. Shared memory is an optimization, never a
   correctness dependency.
3. **Clear ownership** — only the publishing (parent) process unlinks.
   Workers hold read-only views for their lifetime; their mappings die
   with them. The parent releases segments as soon as the worker pool
   they served has drained, plus a belt-and-braces ``atexit`` sweep.

The knob: ``Settings.shm`` / ``REPRO_SHM`` / ``--no-shm`` (default on).
"""

from __future__ import annotations

import atexit
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from repro._util import truthy

__all__ = [
    "cached_video",
    "configure",
    "enabled",
    "fetch",
    "publish_video",
    "release",
    "release_all",
    "transport_stats",
]

#: Process-wide override installed by ``Settings.apply`` / ``configure``;
#: ``None`` defers to the ``REPRO_SHM`` environment variable.
_enabled: bool | None = None

#: Clip key -> published segment. Forked workers inherit this registry
#: (and the parent's mappings) copy-on-write, which is what lets them
#: attach without any name exchange.
_SEGMENTS: dict[tuple, "_Segment"] = {}

#: Per-process cache of attached (worker-side) frame sequences.
_ATTACHED: dict[tuple, object] = {}

#: Process-wide decoded-clip cache for the service layer (see
#: :func:`cached_video`).
_DECODE_CACHE: dict[tuple, object] = {}

#: Warned failure categories (once per process).
_warned: set[str] = set()


@dataclass
class _Segment:
    shm: object  # multiprocessing.shared_memory.SharedMemory
    owner_pid: int
    clip: str
    fps: float
    n_frames: int
    height: int
    width: int
    has_chroma: bool
    chroma_h: int
    chroma_w: int


def configure(enabled: bool | None = None) -> None:
    """Install a process-wide on/off override (``None`` = env fallback)."""
    global _enabled
    _enabled = enabled


def enabled() -> bool:
    """Whether frame publishing is on (override > ``REPRO_SHM`` > on)."""
    if _enabled is not None:
        return _enabled
    raw = os.environ.get("REPRO_SHM", "").strip()
    return truthy(raw) if raw else True


def _warn_once(category: str, message: str) -> None:
    if category in _warned:
        return
    _warned.add(category)
    text = f"shared-memory transport: {message}; falling back to per-worker decode"
    warnings.warn(text, UserWarning, stacklevel=3)
    print(f"repro.experiments.transport: {text}", file=sys.stderr)


def publish_video(key: tuple, video) -> bool:
    """Copy one decoded clip's planes into a shared segment.

    ``key`` is the sweep engine's clip-cache key ``(name, width, height,
    n_frames)``; ``video`` a :class:`~repro.video.frame.FrameSequence`.
    Returns ``True`` on success; on any failure warns once and returns
    ``False`` (callers then rely on the historical per-worker decode).
    """
    if key in _SEGMENTS:
        return True
    try:
        from multiprocessing import shared_memory

        frames = video.frames
        n = len(frames)
        h, w = frames[0].luma.shape
        chroma = frames[0].chroma
        has_chroma = chroma is not None
        if any((f.chroma is not None) != has_chroma for f in frames):
            raise ValueError("mixed chroma presence across frames")
        ch, cw = chroma[0].shape if has_chroma else (0, 0)
        luma_bytes = n * h * w
        total = luma_bytes + (2 * n * ch * cw if has_chroma else 0)
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        buf = np.frombuffer(shm.buf, dtype=np.uint8)
        lumas = buf[:luma_bytes].reshape(n, h, w)
        for i, frame in enumerate(frames):
            lumas[i] = frame.luma
        if has_chroma:
            plane = n * ch * cw
            cb = buf[luma_bytes : luma_bytes + plane].reshape(n, ch, cw)
            cr = buf[luma_bytes + plane : luma_bytes + 2 * plane].reshape(
                n, ch, cw
            )
            for i, frame in enumerate(frames):
                cb[i], cr[i] = frame.chroma  # type: ignore[misc]
        del lumas, buf  # drop exported views so release() can close
        if has_chroma:
            del cb, cr
        _SEGMENTS[key] = _Segment(
            shm=shm,
            owner_pid=os.getpid(),
            clip=str(video.name),
            fps=float(video.fps),
            n_frames=n,
            height=h,
            width=w,
            has_chroma=has_chroma,
            chroma_h=ch,
            chroma_w=cw,
        )
        return True
    except Exception as exc:
        _warn_once("publish", f"publishing {key[0]!r} failed ({exc})")
        return False


def fetch(key: tuple):
    """A zero-copy :class:`FrameSequence` over a published segment.

    Only meaningful in a forked worker (the publisher keeps using its own
    decoded copy); returns ``None`` when nothing was published for
    ``key``, the caller *is* the publisher, or attaching fails — callers
    then decode normally.
    """
    seg = _SEGMENTS.get(key)
    if seg is None or seg.owner_pid == os.getpid():
        return None
    cached = _ATTACHED.get(key)
    if cached is not None:
        return cached
    try:
        from repro.video.frame import Frame, FrameSequence

        n, h, w = seg.n_frames, seg.height, seg.width
        buf = np.frombuffer(seg.shm.buf, dtype=np.uint8)
        luma_bytes = n * h * w
        lumas = buf[:luma_bytes].reshape(n, h, w)
        lumas.flags.writeable = False
        chroma_pairs: list = [None] * n
        if seg.has_chroma:
            plane = n * seg.chroma_h * seg.chroma_w
            cb = buf[luma_bytes : luma_bytes + plane].reshape(
                n, seg.chroma_h, seg.chroma_w
            )
            cr = buf[luma_bytes + plane : luma_bytes + 2 * plane].reshape(
                n, seg.chroma_h, seg.chroma_w
            )
            cb.flags.writeable = False
            cr.flags.writeable = False
            chroma_pairs = [(cb[i], cr[i]) for i in range(n)]
        video = FrameSequence(
            frames=[
                Frame(luma=lumas[i], chroma=chroma_pairs[i]) for i in range(n)
            ],
            fps=seg.fps,
            name=seg.clip,
        )
        _ATTACHED[key] = video
        return video
    except Exception as exc:
        _warn_once("attach", f"attaching {key[0]!r} failed ({exc})")
        return None


def release(keys) -> None:
    """Close and unlink the given published segments (publisher only)."""
    for key in list(keys):
        seg = _SEGMENTS.pop(key, None)
        if seg is None or seg.owner_pid != os.getpid():
            continue
        try:
            seg.shm.close()
            seg.shm.unlink()
        except Exception:
            # Best effort: a leaked segment is reclaimed by the resource
            # tracker at process exit; never fail a finished sweep here.
            pass


def release_all() -> None:
    """Release every segment this process published."""
    release(tuple(_SEGMENTS))


def cached_video(name: str, *, width: int, height: int, n_frames: int):
    """Process-wide decoded-clip cache with a shared-memory fast path.

    The service layer routes its per-request decodes here: repeated
    service instances (serve + its random-placement control, loadtest
    legs, fleet comparisons) share one decoded copy per clip geometry,
    and a forked child of a sweep parent that already published the clip
    attaches the shared planes instead of decoding at all.
    """
    key = (name, width, height, n_frames)
    video = _DECODE_CACHE.get(key)
    if video is None:
        video = fetch(key)
        if video is None:
            from repro.video.vbench import load_video

            video = load_video(
                name, width=width, height=height, n_frames=n_frames
            )
        _DECODE_CACHE[key] = video
    return video


def transport_stats() -> dict[str, int]:
    """Counts of live published/attached segments (for tests and debug)."""
    return {
        "published": sum(
            1 for s in _SEGMENTS.values() if s.owner_pid == os.getpid()
        ),
        "inherited": sum(
            1 for s in _SEGMENTS.values() if s.owner_pid != os.getpid()
        ),
        "attached": len(_ATTACHED),
        "decoded": len(_DECODE_CACHE),
    }


atexit.register(release_all)

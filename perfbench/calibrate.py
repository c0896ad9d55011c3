"""Host-speed calibration: every second perfbench prints is a reference-host second.

The sandboxes this benchmark runs in share their cores. Measured on this
repository's own box, the same encode took 0.97 s at one moment and 0.56 s a
quarter of an hour later with nothing changed, and the drift is slow (minutes),
so no amount of averaging inside a 20 s run removes it: ten raw runs of one
commit spread by 30%, three times any useful regression bound.

The drift is a uniform slow-down of the core (a pure-Python loop slows by the
same factor as the NumPy-heavy encoder), so it can be measured and divided
out. ``kernel`` is a fixed ~10 ms mix of what the pipeline executes - bytecode
arithmetic, list shuffling, small-array NumPy calls, hashing and JSON. The
benchmark times it right beside every timed call and reports

    reference-host seconds = wall seconds x NOMINAL_S / kernel seconds

that is, what the call would have taken on a host where ``kernel`` takes
exactly ``NOMINAL_S``. On a quiet host the factor stays near 1 and costs a few
percent of extra spread; on a drifting host it is the difference between a
usable number and none. The raw host speed is printed with every run.

``kernel`` and ``NOMINAL_S`` are part of the ruler: changing either rescales
every time metric, so they change only in a PR that re-measures the baseline.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

#: Seconds ``kernel`` takes on the reference host (this box, quiet, Python 3.11).
NOMINAL_S = 0.010

_MATRIX = np.arange(256, dtype=np.float64).reshape(16, 16)
_PAYLOAD = {f"k{i}": i * 1.25 for i in range(40)}


def kernel() -> int:
    total = 0
    ring = list(range(64))
    for i in range(20000):
        total += i * i
        ring.append(ring.pop(0))
    for _ in range(2000):
        total += int(np.abs(_MATRIX @ _MATRIX.T - _MATRIX).sum()) & 1
    for _ in range(60):
        text = json.dumps(_PAYLOAD, sort_keys=True)
        total += hashlib.sha256(text.encode("utf-8")).digest()[0]
    return total


def sample() -> float:
    """Seconds one ``kernel`` takes right now: the median of five back-to-back
    runs, so a single interrupt does not count as host speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(*samples: float) -> float:
    """Factor that turns wall seconds measured beside ``samples`` into
    reference-host seconds."""
    return NOMINAL_S / (sum(samples) / len(samples))

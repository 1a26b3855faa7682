"""Host-speed calibration: scale measured times to a reference host speed.

The benchmark host is a shared 2-vCPU VM whose speed moves in phases of
a few seconds -- a fixed pure-Python loop takes anywhere from 1x to 3x
its fastest time (see README.md, "Steadiness").  A search's raw wall
time mostly measures the phase it ran in.  So every timed quantity is
bracketed by a short, fixed calibration kernel that shares no code with
the program, and reported in *reference seconds*: the raw time scaled
by ``reference / observed kernel time``, i.e. as if the host ran the
kernel in exactly the reference time.

The search kernel is a loop of small-array numpy calls, the shape of
work that dominates the searches; of the candidates tried (a pure
interpreter loop, small and cache-missing uint64 gathers, a large dict)
it tracked the searches' slow phases most closely.
"""

from __future__ import annotations

import time

#: Time of :func:`numpy_kernel` at the reference host speed.
REFERENCE_S = 0.010
#: Time of :func:`python_kernel` at the reference host speed.  Set-up is
#: bracketed by this kernel because numpy is not imported when set-up
#: starts.
PYTHON_REFERENCE_S = 0.004

_SMALL = None


def python_kernel() -> float:
    """Seconds of a fixed interpreter loop (needs no third-party import)."""
    start = time.perf_counter()
    total = 0
    slots = {}
    for i in range(60000):
        total += i
        slots[i & 255] = total
    return time.perf_counter() - start


def numpy_kernel() -> float:
    """Seconds of a fixed loop of small-array numpy calls."""
    global _SMALL
    import numpy as np

    if _SMALL is None:
        _SMALL = np.random.default_rng(0).integers(
            0, 2**63, size=(23, 1), dtype=np.uint64)
    small = _SMALL
    start = time.perf_counter()
    words = small.copy()
    for _ in range(1500):
        words = np.bitwise_xor(words, small)
        words[words[:, 0] > 5]
        words = np.where(words & np.uint64(1), words, small)
    return time.perf_counter() - start


def scale(before: float, after: float,
          reference: float = REFERENCE_S) -> float:
    """Raw-to-reference factor for work bracketed by two kernel times."""
    return reference / ((before + after) / 2.0)

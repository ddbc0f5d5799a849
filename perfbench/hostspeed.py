"""
Host-speed calibration for the timed metrics.

The benchmark shares a machine whose speed drifts by a third within
minutes, far more than any bound a regression check could use.  So
before every timed call a fixed pure-Python kernel is timed, and the
median of the last WINDOW kernel times estimates the current host
speed.  Each call's wall time is multiplied by REFERENCE_KERNEL_S over
that median: the result reads as seconds on a host where the kernel
takes REFERENCE_KERNEL_S.  The kernel never touches posvec, so a change
to the program moves the scaled time exactly as it moves the wall time.
"""

from __future__ import annotations

from collections import deque
from statistics import median
from time import perf_counter

REFERENCE_KERNEL_S = 0.5e-3  # about the kernel's time on a 2.1 GHz core
WINDOW = 9


def kernel() -> int:
    """Interpreter work like posvec's: integer arithmetic, dict and list updates."""
    table, total, pairs = {}, 0, []
    for i in range(3000):
        table[i & 255] = i
        total += (i * 7) % 13
        if i & 7 == 0:
            pairs.append((i, total))
    return total + len(table) + len(pairs)


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class HostSpeed:
    def __init__(self) -> None:
        self._recent = deque((kernel_seconds() for _ in range(WINDOW)), maxlen=WINDOW)

    def factor(self) -> float:
        """Time the kernel once more; return REFERENCE_KERNEL_S / the recent median."""
        self._recent.append(kernel_seconds())
        return REFERENCE_KERNEL_S / median(self._recent)

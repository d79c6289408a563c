"""Host-speed correction for timings taken on a shared machine.

On a shared host the same CPU-bound work runs at speeds up to about 1.7x
apart, and the speed changes within seconds. To keep that out of the
metrics, the benchmark times a fixed calibration kernel right after every
request. The kernel uses only the standard library (exact `Fraction`
elimination and an integer dictionary knapsack, the same kind of work as the
solvers), so no change to `fairshare` can change its cost. A request's
corrected time is its raw time scaled by `NOMINAL_S` over the kernel's time
around it: seconds on a host where one kernel run takes `NOMINAL_S`.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# One kernel run on an unloaded 2-vCPU Intel Xeon container (Python 3.11).
NOMINAL_S = 0.003
# Kernel runs on each side of a request that set its local host speed. The
# host's slow spells last a few hundred milliseconds or more, so the nearest
# runs track them best.
HALF_WINDOW = 1


def kernel() -> int:
    """Fixed work: eliminate a 9x10 Fraction matrix, then a 0/1 knapsack."""
    n = 9
    a = [[Fraction((i * 7 + j * 3) % 11 + 13 * (i == j), 1 + (i + j) % 5) for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    best = {0: 0}
    for k in range(12):
        weight = (k * 37) % 97 + 1
        for total, value in list(best.items()):
            if total + weight <= 400 and best.get(total + weight, -1) < value + k:
                best[total + weight] = value + k
    return max(best.values()) + a[0][n].numerator % 2


def kernel_time() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def corrected(times: list[float], kernel_times: list[float], half_window: int = HALF_WINDOW) -> list[float]:
    """Scale each time by NOMINAL_S over the median kernel time within
    `half_window` positions of it, so that a slow spell of the host slows the
    kernel alike and cancels out. `kernel_times[k]` was taken right after
    `times[k]`, so a window of 1 spans the kernel runs just before and after."""
    if len(times) != len(kernel_times):
        raise ValueError("one kernel time per timing")
    out = []
    for k, t in enumerate(times):
        local = statistics.median(kernel_times[max(0, k - half_window) : k + half_window + 1])
        out.append(t * NOMINAL_S / local)
    return out

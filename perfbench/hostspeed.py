"""Host speed: a fixed kernel timed between samples, to scale times to a reference host.

The benchmark runs on shared virtual cores whose speed changes by up to 1.5x
for seconds to minutes at a time, with cpu time rising with wall time, so two
runs of the same code minutes apart can differ by more than any useful bound.
A kernel owned by the benchmark, and so unchanged by any change to the
package, is timed between samples.  A sample's scaled time is its measured
time times REFERENCE_S over the median kernel time read around it: the time
the sample would take on a host that runs the kernel in REFERENCE_S.  The
readings that count are those within one sample length of the sample, and
within WINDOW_S at least: a long sample averages the host over its length,
so one reading taken in an instant would add more noise than it removes.
The kernel does what the package's hot loops do: integer list convolution,
dict updates under tuple keys, Fraction and complex arithmetic.

Set-up times, which are mostly interpreter start, are scaled the same way by
a fresh interpreter that runs the kernel once (``python3 perfbench/hostspeed.py``).
"""

from __future__ import annotations

import cmath
import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, process_time

# Kernel time on the reference host, in seconds; on a shared 2-core Xeon
# virtual machine it reads 0.025 to 0.050.
REFERENCE_S = 0.035
# Time of a fresh interpreter that runs the kernel once on the reference host.
REFERENCE_PROCESS_S = 0.100
# A sample starts with a new reading once the last one is this old.
STRETCH_S = 0.5
# Readings this close to a sample count for it, or one sample length if longer.
WINDOW_S = 1.0


def kernel() -> tuple:
    """Fixed pure-Python work, REFERENCE_S on the reference host."""
    acc = {}
    a = [i % 7 for i in range(40)]
    b = [i % 5 for i in range(40)]
    for r in range(240):
        out = [0] * 80
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for k in range(0, 80, 4):
            key = (k % 9, r % 5, k // 9)
            acc[key] = acc.get(key, 0) + out[k]
    f = Fraction(0)
    for i in range(1, 1600):
        f += Fraction(i % 13, i % 11 + 1)
    c = 0j
    for i in range(8000):
        c += cmath.exp(1j * i * 0.001)
    return len(acc), f, c


def time_kernel() -> tuple[float, float]:
    """(wall, cpu) seconds of one kernel run, with the collector off so the
    objects the package holds do not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = perf_counter(), process_time()
        kernel()
        return perf_counter() - w0, process_time() - c0
    finally:
        if enabled:
            gc.enable()


def time_kernel_process() -> tuple[float, float]:
    """(wall, wall) seconds of a fresh interpreter that runs the kernel once."""
    t0 = perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, __file__], check=True)
    wall = perf_counter() - t0
    return wall, wall


class HostSpeed:
    """Kernel readings, with the time each was taken.

    ``mark()`` before each sample reads the kernel if the last reading is
    older than ``stretch_s``; ``close()`` after the last sample reads it once
    more; ``scale(start, end)`` is then the (wall, cpu) factors for a sample
    that ran from ``start`` to ``end`` (perf_counter times).
    """

    def __init__(self, stretch_s: float = STRETCH_S, calibrate=time_kernel,
                 reference_s: float = REFERENCE_S):
        self.stretch_s = stretch_s
        self.calibrate = calibrate
        self.reference_s = reference_s
        self.readings: list[tuple[float, float, float]] = []  # (taken at, wall, cpu)

    def _read(self) -> None:
        if not self.readings:
            self.calibrate()  # the first run pays for cold caches and allocations
        wall, cpu = self.calibrate()
        self.readings.append((perf_counter(), wall, cpu))

    def mark(self) -> None:
        if not self.readings or perf_counter() - self.readings[-1][0] >= self.stretch_s:
            self._read()

    def close(self) -> None:
        self._read()

    def kernel_times(self) -> list[float]:
        return [wall for _, wall, _ in self.readings]

    def scale(self, start: float, end: float) -> tuple[float, float]:
        reach = max(WINDOW_S, end - start)
        around = [(w, c) for t, w, c in self.readings if start - reach <= t <= end + reach]
        return (self.reference_s / statistics.median(w for w, _ in around),
                self.reference_s / statistics.median(c for _, c in around))


if __name__ == "__main__":
    kernel()

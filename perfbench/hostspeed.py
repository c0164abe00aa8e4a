"""Host-speed reference: a fixed stdlib-only kernel timed between jobs.

The shared 2-vCPU host this benchmark was built on changes speed under
it: the same kernel reads 0.035 s for a second or two, then 0.065 s, and
the mix of fast and slow spells drifts over minutes, by 20-40%.  Raw wall
times of ten 30-s runs therefore spread by 6-29% (interquartile range
over median), depending on the hour.  So a kernel that never imports the
simulator is timed before the first job of each pass and after every
job, outside the job timings, and the run's host times are multiplied by
``(REFERENCE_S / k) ** ELASTICITY``, with ``k`` the trimmed mean of the
run's kernel times.  They then read in *reference seconds*: seconds on a
host that runs the kernel in ``REFERENCE_S``.  A change to the simulator
moves them as it moves raw seconds, since the kernel does not change
with it; a host that is slower during one run than another slows the
kernel and the jobs alike, and the factor cancels most of it.  A mean,
not a median, because the kernel times are bimodal and the jobs pay the
mix of the two.  The kernel feels the host's spells more than the
simulator does: over 32 passes of irregular-sweep, log pass time rose by
0.59 per unit of log kernel time (correlation 0.81), over whole runs by
0.84, and over 30-s windows of a repeated simulation by 0.72-0.74; hence
the exponent 0.7 rather than 1.

The kernel mixes what the simulator's hot loop does: object allocation,
attribute access and method calls, dict get/set on a working set larger
than the L2 cache, and a heap.  It runs in a small process of its own
(``Metronome``): run inside the simulator's process it would also time
that process's heap, which differs from pass to pass.

    python3 perfbench/hostspeed.py   # time the kernel 40 times, print the median
"""

from __future__ import annotations

import gc
import heapq
import statistics
import subprocess
import sys
import time
from typing import Callable

#: Median kernel seconds on the reference host (2.1 GHz Xeon VM, 2 vCPUs).
REFERENCE_S = 0.06
#: Log-log slope of simulator host time on kernel time (see above).
ELASTICITY = 0.7
_OBJECTS = 1 << 13
_STEPS = 24_000


class _Cell:
    __slots__ = ("base", "counts")

    def __init__(self, base: int):
        self.base = base
        self.counts: dict[int, int] = {}

    def step(self, key: int) -> int:
        counts = self.counts
        counts[key & 255] = counts.get(key & 255, 0) + 1
        return self.base + key


def kernel_seconds() -> float:
    """Time one run of the fixed kernel (deterministic work).

    The cyclic garbage collector is off while it runs, so a collection
    of whatever else the process holds is not timed with it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    started = time.perf_counter()
    cells = [_Cell(i) for i in range(_OBJECTS)]
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    x = 12345
    for seq in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += cells[x & (_OBJECTS - 1)].step(x >> 16)
        key = x & 0x3FFFF
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (x & 1023, seq))
        if len(heap) > 512:
            heapq.heappop(heap)
    elapsed = time.perf_counter() - started
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


def scale(kernels: list[float]) -> float:
    """Host seconds to reference seconds, from kernel times taken
    around the work (1.0 when there are none).

    The mean leaves out the fastest and slowest tenth of the times.
    """
    if not kernels:
        return 1.0
    ordered = sorted(kernels)
    cut = len(ordered) // 10
    typical = statistics.fmean(ordered[cut:len(ordered) - cut])
    return (REFERENCE_S / typical) ** ELASTICITY


class Metronome:
    """The kernel, timed on request in a small process of its own.

    The caller blocks while it runs, so the two never compete for a CPU.
    ``close()`` ends the process and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def kernel_seconds(self) -> float:
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"host-speed process exited with {self._proc.wait()}")
        return float(reply)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


class Laps:
    """Splits one pass into consecutive segments of host time.

    ``kernel`` (a ``Metronome.kernel_seconds``) runs on creation and at
    each ``lap()``; its own time is in no segment.  Without it (under
    cProfile) nothing is timed between segments.
    """

    def __init__(self, kernel: Callable[[], float] | None):
        self._time_kernel = kernel
        self.kernels: list[float] = []
        self.segments: list[float] = []
        self._kernel()
        self._mark = time.perf_counter()

    def _kernel(self) -> None:
        if self._time_kernel is not None:
            self.kernels.append(self._time_kernel())

    def lap(self) -> None:
        self.segments.append(time.perf_counter() - self._mark)
        self._kernel()
        self._mark = time.perf_counter()


def _serve() -> None:
    for _ in sys.stdin.buffer:
        sys.stdout.write(f"{kernel_seconds()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        times = [kernel_seconds() for _ in range(40)]
        print(f"kernel median {statistics.median(times):.4f} s, "
              f"min {min(times):.4f} s, max {max(times):.4f} s")

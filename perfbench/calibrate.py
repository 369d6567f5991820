"""Host speed, measured on a spare CPU while the benchmark runs.

The machines this benchmark runs on are shared.  A neighbour's load
slows execution (not scheduling: CPU time tracks wall time) by 10-25%
for minutes at a time, which would swamp the differences the benchmark
exists to detect.  That slowdown is host-wide: it shows on every CPU of
the machine at once.  So while a run measures, a :class:`Monitor`
process pinned to another CPU times :func:`kernel` back to back, and
every time a rep measured is scaled by ``REFERENCE_S / median(kernel
time during that rep)``.  Over a fixed draw, the kernel's time and the
workloads' times moved together (correlation 0.85-0.9 once smoothed
over a few reps), and scaling halved their spread.

Kernels timed between reps in the benchmark's own process tracked
worse: a few milliseconds every second or two sample the host too
sparsely, and a numpy kernel once ran twice as fast for minutes while
the workload did not change.  The kernel is part of the benchmark, not
of the program, so a change to the program cannot move it.  On a host
with one CPU there is no spare CPU; times are then host CPU seconds and
the run says so.

Run as a script, this module is the monitor process itself::

    python3 perfbench/calibrate.py <samples file> <cpu> <parent pid>
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import List, Optional

#: Median kernel time on the reference host (2-vCPU x86_64 VM, Python
#: 3.11).  A scaled second is a second on that host at its usual speed.
REFERENCE_S = 1.55e-3

#: A rep's factor needs this many kernel samples inside its window;
#: shorter windows use the whole run's factor.
MIN_SAMPLES = 20


def kernel() -> int:
    """One pass of the fixed interpreter workload; returns a checksum."""
    counts: dict = {}
    for i in range(30000):
        counts[i % 101] = counts.get(i % 101, 0) + i
    return len(counts)


def _monitor(path: str, cpu: int, parent: int) -> None:
    """Time :func:`kernel` until told to stop or the parent is gone."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    os.sched_setaffinity(0, {cpu})
    with open(path, "w") as out:
        while os.getppid() == parent:
            start = time.process_time()
            kernel()
            took = time.process_time() - start
            out.write(f"{time.perf_counter():.6f} {took:.7f}\n")


class Monitor:
    """The kernel timed on a spare CPU for the length of a run.

    ``start`` pins this process to one CPU and the monitor to another;
    ``stop`` ends the monitor, waits for it, and loads its samples: the
    kernel's CPU time, like the workloads' timings, stamped with
    ``time.perf_counter`` readings, which share one monotonic clock
    across processes.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.proc: Optional[subprocess.Popen] = None
        self.ends: List[float] = []
        self.times: List[float] = []

    @property
    def available(self) -> bool:
        return len(os.sched_getaffinity(0)) >= 2

    def start(self) -> None:
        if not self.available:
            return
        own, spare = sorted(os.sched_getaffinity(0))[:2]
        os.sched_setaffinity(0, {own})
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.path), str(spare),
             str(os.getpid())])

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None
        with open(self.path) as samples:
            rows = [line.split() for line in samples if line.endswith("\n")]
        self.path.unlink()
        self.ends = [float(end) for end, _ in rows]
        self.times = [float(took) for _, took in rows]

    def run_factor(self) -> float:
        """Reference seconds per host second over the whole run."""
        if not self.times:
            return 1.0
        return REFERENCE_S / statistics.median(self.times)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per host second between ``start`` and ``end``."""
        lo, hi = bisect_left(self.ends, start), bisect_right(self.ends, end)
        if hi - lo < MIN_SAMPLES:
            return self.run_factor()
        return REFERENCE_S / statistics.median(self.times[lo:hi])


if __name__ == "__main__":
    _monitor(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))

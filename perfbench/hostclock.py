"""Host-speed normalisation of the benchmark's wall-clock times.

On a shared host the speed of a core drifts by tens of percent within
seconds (contention for the physical core and its caches), so raw wall times
of the same op spread more than any useful regression bound.  A fixed
reference task is timed right before and right after every measured
interval, on the same core, and the interval is scaled by the task's
reference time over the mean of the two measured times.  The result is
"reference seconds": the time the interval would take on a host where the
task takes its reference time.

The task has up to two parts, matched to what is measured:

- a compute kernel, pure-Python scalar math and formatting like the
  program's own hot paths, for in-process ops;
- a bare interpreter start (``python -c pass``), for intervals that start
  processes, whose cost (exec, loading, page faults) drifts unlike compute.

Neither part calls the program, so a change to the program moves the scaled
times exactly as it moves the raw ones; only the host's drift cancels.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

# Reference times of the two parts: round figures near their medians on a
# 2-vCPU x86-64 cloud VM under Python 3.11.
REF_KERNEL_S = 0.04
REF_START_S = 0.05


def kernel() -> int:
    """Fixed calibration work; the result only keeps the work from being skipped."""
    acc = 0.0
    for i in range(1, 10000):
        x = i * 0.37 + 1.0
        t = 0.0
        for k in range(1, 8):
            t += math.log(x + k) / (x * k) - math.exp(-k / x)
        acc += math.lgamma(x) * 1e-9 + t
    rows = [{"x": format(acc * i, ".10g"), "i": i} for i in range(600)]
    return len(json.dumps(rows)) + len(",".join(r["x"] for r in rows))


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _bare_start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class HostClock:
    """Scales consecutive measured intervals to reference seconds.

    Construct it right before the first interval and call ``scale`` right
    after each one; the task run by ``scale`` also serves as the "before"
    time of the next interval.  ``processes`` adds the interpreter start to
    the task, for intervals that start processes.
    """

    def __init__(self, processes: bool = False) -> None:
        self.processes = processes
        self.ref_s = REF_KERNEL_S + (REF_START_S if processes else 0.0)
        self._before = self._task()
        self.factors: list[float] = []

    def _task(self) -> float:
        return _seconds(kernel) + (_seconds(_bare_start) if self.processes else 0.0)

    def scale(self, seconds: float) -> float:
        after = self._task()
        factor = self.ref_s / ((self._before + after) / 2.0)
        self._before = after
        self.factors.append(factor)
        return seconds * factor

"""Host speed, read from a fixed reference kernel run in the measuring process.

The host's speed drifts by up to 1.7x, in stretches of seconds to minutes
(see README.md), so no amount of sampling inside a run averages it out.  The
benchmark therefore runs a reference kernel every SAMPLE_EVERY_S seconds
throughout the run, from a SIGALRM handler, so that samples are also taken
in the middle of an op that lasts many seconds.  Each execution's time,
less the kernel runs that fell inside it, is reported scaled by

    NOMINAL_REF_S / (median kernel time from WINDOW_S before the execution
                     to WINDOW_S after it)

which is the time the work would have taken while the host runs the kernel
in NOMINAL_REF_S.

The kernel is the benchmark's own code, so a change to brauerkit cannot move
it.  It is a pure-Python integer loop: brauerkit's ops spend most of their
time in the interpreter around many small numpy calls, and when the kernel
is sampled evenly over the same seconds as an op, the ratio of their median
times moved about 4 % while both moved 1.5x.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Median kernel time on a 2-vCPU Firecracker VM ("Intel Xeon Processor",
# Python 3.11.7, numpy 2.4.6); it only sets the scale of the reported times.
NOMINAL_REF_S = 0.0021
SAMPLE_EVERY_S = 0.1
WINDOW_S = 1.0


def reference_kernel() -> int:
    """Fixed work, about 2 ms at nominal speed."""
    s = 0
    for i in range(20_000):
        s = (s * 31 + i) % 1_000_003
    return s


class Speed:
    """Times of the reference kernel, with the moments they were taken."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def sample(self, n: int = 1):
        for _ in range(n):
            start = time.perf_counter()
            reference_kernel()
            self.starts.append(start)
            self.times.append(time.perf_counter() - start)

    def start(self):
        """Sample every SAMPLE_EVERY_S seconds until stop()."""
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from measured to nominal-speed time, over all samples."""
        return NOMINAL_REF_S / statistics.median(self.times)

    def _between(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end))

    def kernel_time(self, start: float, seconds: float) -> float:
        """Time spent in the kernel by samples taken within [start, start + seconds]."""
        return sum(self.times[self._between(start, start + seconds)])

    def scale_at(self, start: float, seconds: float) -> float:
        """Factor for an execution of ``seconds`` that began at ``start``."""
        window = self.times[self._between(start - WINDOW_S, start + seconds + WINDOW_S)]
        if not window:
            return self.scale()
        return NOMINAL_REF_S / statistics.median(window)

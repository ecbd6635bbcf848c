"""Host-speed calibration for the timed metrics.

The reference machine is a shared 2-core VM whose speed drifts: with the
host busy, the same Python code runs up to about 1.7 times slower, in
phases that last from a fraction of a second to minutes. Wall times of
one run then differ from the next by more than any useful regression
bound.

While a run measures, an interval timer (SIGALRM, in the one thread of
the one process) interrupts it every REF_EVERY_S and times a fixed
pure-Python reference task: between calls and inside long ones alike.
The time the handler takes is left out of every timing, because all of
them read the work clock, now(), which stops while the handler runs.
Every timed call is then scaled by its mean speed: the mean of
REF_NOMINAL_S over each reference sample taken during the call or within
REF_WINDOW_S of it (at least the REF_MIN_SAMPLES nearest). The result is
the time the call would take on the reference machine with a quiet host.
A change to gridres moves the timed calls but not the reference task, so
it still shows in full; a change of host speed moves both and cancels
out. The raw wall times are kept next to the scaled ones.

The mean of the speeds, not the median of the samples, tracks a call
that spans many fast and slow phases: the samples of such a call fall
into two clusters, and the median jumps between them from run to run.
"""

import bisect
import contextlib
import math
import signal
import statistics
import time

# Reference-task time on the reference machine (Intel Xeon VM, 2 vCPU,
# Python 3.11) with a quiet host: the minimum over many samples.
REF_NOMINAL_S = 0.0049
# Interval between two reference samples.
REF_EVERY_S = 0.1
# Samples this close to a call count toward its speed ...
REF_WINDOW_S = 0.1
# ... and never fewer than this many, the nearest ones.
REF_MIN_SAMPLES = 3


def reference_work() -> float:
    """A fixed mix of float arithmetic, dict and attribute lookups."""
    table = {}
    acc = 0.0
    for i in range(30000):
        key = i & 127
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0) * 1.0001
    return acc + len(table)


class HostClock:
    """Reference samples over the work clock, and the speed they give."""

    def __init__(self):
        self.times: list[float] = []      # work-clock instant of each sample
        self.samples: list[float] = []    # reference-task wall time, s
        self.excluded = 0.0               # wall time spent taking samples
        self._armed = False

    def now(self) -> float:
        """Wall time minus the time spent on reference samples."""
        return time.perf_counter() - self.excluded

    def sample(self, *_signal_args):
        """Time the reference task; re-arm the timer while running()."""
        t = self.now()
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.times.append(t)
        self.samples.append(t1 - t0)
        self.excluded += time.perf_counter() - t0
        if self._armed:
            # One shot at a time, so a slow sample never overlaps the next.
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    @contextlib.contextmanager
    def running(self):
        """Take a sample now and then every REF_EVERY_S until the exit."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self._armed = True
        try:
            self.sample()
            yield self
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, t0: float, t1: float) -> float:
        """Mean of REF_NOMINAL_S / sample near the work-clock span [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + REF_WINDOW_S)
        while hi - lo < min(REF_MIN_SAMPLES, len(self.times)):
            before = self.times[lo - 1] if lo > 0 else -math.inf
            after = self.times[hi] if hi < len(self.times) else math.inf
            if t0 - before <= after - t1:
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(REF_NOMINAL_S / s for s in self.samples[lo:hi])

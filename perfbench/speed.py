"""Host-speed probe: rescales measured times to one reference host speed.

The machines this benchmark is meant for share their cores with other
tenants.  On the 2-vCPU VM it was written on, the same code runs up to
1.8x slower for seconds to minutes at a time, so a run's median wall time
mostly reads how busy the host was.  The probe times a fixed ~1.2 ms numpy
kernel every `PERIOD_S` seconds (from a SIGALRM handler, which Python runs
between bytecodes of the main thread) and once before and after every
item.  An item's slowdown is the median kernel time over the samples taken
during it, divided by `REFERENCE_S`; its time is divided by
``slowdown ** sensitivity``, where the sensitivity says how strongly that
kind of work slows with the kernel (README: reference host speed).

The kernel is benchmark code: no change to freqlab moves it, so the
rescaled times move with the program's own speed.
"""

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# the kernel's time on the machine the benchmark was written on (2-vCPU
# Intel Xeon VM, numpy 2.4.6) when its host was quiet; rescaled times are
# seconds at that speed
REFERENCE_S = 1.1e-3


class SpeedProbe:
    """Kernel timings, as (end time, duration) in `perf_counter` seconds."""

    def __init__(self):
        self._a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
        self._b = np.empty_like(self._a)
        self.ends = []
        self.durations = []

    def _kernel(self):
        # in place: a kernel that allocated would time page faults, which
        # depend on the state the program left the allocator in
        a, b = self._a, self._b
        np.copyto(b, a)
        for _ in range(3):
            np.sin(b, out=b)
            b += a

    def sample(self):
        # the first run refills the caches the program used, so the timed
        # second run reads the core's speed, not what ran before it
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    @contextlib.contextmanager
    def running(self):
        """Sample every `PERIOD_S` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start, end):
        """Host slowness over [start, end] against the reference: the median
        kernel time of the samples inside it and the one on each side."""
        i = max(bisect.bisect_left(self.ends, start) - 1, 0)
        j = bisect.bisect_right(self.ends, end) + 1
        return statistics.median(self.durations[i:j]) / REFERENCE_S

    def rescale(self, start, end, sensitivity=1.0):
        """Seconds at reference speed for the interval [start, end], for
        work whose time grows as slowdown ** `sensitivity`."""
        return (end - start) / self.slowdown(start, end) ** sensitivity

"""Host-speed sampling, so that timings do not move with the host's load.

On a shared virtual machine the speed of a vCPU changes with what other
tenants run: the same operation can take 1.7 times as long for seconds or
minutes, and then speed up again.  That drift lasts longer than one
benchmark run, so no estimator over one run's repetitions (median or
minimum) removes it.

``ScaledTimer`` therefore samples the host's speed *during* each timed
call.  A fixed probe (a few hundred microseconds of batched 3x3 SVDs, a
kd-tree query, small numpy operations and a plain Python loop; nothing of
physedit, so no change to physedit moves it) runs right before the call,
from a SIGALRM handler every INTERVAL_S seconds while the call runs, and
right after it.  The probes' own time is taken out of the call's time,
and the rest is scaled to a host on which the probe takes REFERENCE_S:

    scaled = (measured - probes inside) * REFERENCE_S / mean(probe times)

Python runs signal handlers between bytecodes of the main thread, so a
probe never interleaves with a numpy call of the program.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# The probe's typical time on the 2-vCPU Xeon virtual machine the baseline
# was measured on, between slices of a workload [s] (alone it takes about
# 0.6 ms; the workload leaves its caches cold).  Scaled times read as
# seconds on such a host.
REFERENCE_S = 8e-4
INTERVAL_S = 0.05


class Probe:
    """Callable: runs the fixed work once and returns its wall time [s]."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrices = rng.standard_normal((64, 3, 3))
        self.points = rng.random((32, 3))

    def __call__(self):
        t0 = time.perf_counter()
        np.linalg.svd(self.matrices)
        cKDTree(self.points).query(self.points, k=4)
        x = np.ones(16)
        for _ in range(20):
            x = x * 1.0001 + 0.1
        total = 0.0
        for i in range(1000):
            total += i * 0.5
        return time.perf_counter() - t0


class ScaledTimer:
    """Times calls in the main thread, sampling the host's speed meanwhile.

    ``probes`` keeps the number of probes and their mean time per call.
    """

    def __init__(self, probe=None):
        self.probe = probe or Probe()
        self.probes = []

    def __call__(self, fn, *args):
        """(fn's result, its own seconds, seconds scaled to REFERENCE_S)."""
        before = self.probe()
        inside = []  # (start, seconds) of each probe run by the alarm

        def on_alarm(signum, frame):
            inside.append((time.perf_counter(), self.probe()))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # a handler runs whole in this thread: before t1 was read, or after
        own = t1 - t0 - sum(seconds for start, seconds in inside if start < t1)
        samples = [before, *(seconds for _, seconds in inside), self.probe()]
        mean = statistics.fmean(samples)
        self.probes.append((len(samples), mean))
        return result, own, own * REFERENCE_S / mean

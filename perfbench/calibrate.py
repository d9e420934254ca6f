"""Machine-speed calibration: a fixed loop, independent of fundiv, timed while operations run.

On a shared machine the speed of a processor drifts by 15-30% within
seconds to minutes (other tenants' load, clock changes), and every CPU
time drifts with it.  While the benchmark's passes run, ``Sampler`` runs
this loop from a SIGPROF handler after every ``EVERY_S`` of CPU time, so
samples are spread through long operations too.  An operation's CPU time
(less the samples' own) is scaled by ``REF_NS`` over the median sample
during and just before it: the result is its CPU time on a machine where
the loop takes ``REF_NS``.  The loop mixes scalar Python arithmetic and
numpy array arithmetic, the two kinds of work fundiv does, allocates no
array, and calls nothing of fundiv, so a change to fundiv moves no sample.
"""

from __future__ import annotations

import math
import statistics
import signal
from time import perf_counter_ns, thread_time_ns

import numpy as np

#: Nominal CPU time of one sample: about its median in a fresh process on a
#: 2-core Xeon VM.  Between a workload's operations it read 0.65-0.75 ms there.
REF_NS = 600_000
#: CPU time between samples.
EVERY_S = 0.02
#: Samples taken just before an operation that enter its speed with those during it.
CONTEXT = 5

_X = np.linspace(0.0, 1.0, 8192)
_Y = np.empty_like(_X)


def _loop() -> float:
    # No array is allocated, so the state of the heap left by fundiv does not enter.
    s = 0.0
    for i in range(1000):
        s += math.exp(-i * 1e-3) * math.log1p(i)
    for _ in range(20):
        np.exp(_X, out=_Y)
        s += float(_Y.sum())
    return s


def sample_ns(n: int = 1) -> float:
    """Median CPU time of ``n`` runs of the loop, in ns."""
    times = []
    for _ in range(n):
        c0 = thread_time_ns()
        _loop()
        times.append(thread_time_ns() - c0)
    return float(statistics.median(times))


class Sampler:
    """Takes a sample after every ``EVERY_S`` of process CPU time while started.

    Samples are CPU times of this thread: a process-wide CPU timer, armed
    for SIGPROF, makes the kernel read process CPU time at tick resolution.

    ``samples`` holds each sample's CPU time; ``cpu_ns`` and ``wall_ns``
    add up what the samples took, so a timer around an operation can take
    them out.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.cpu_ns = 0
        self.wall_ns = 0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0, c0 = perf_counter_ns(), thread_time_ns()
        _loop()
        cpu = thread_time_ns() - c0
        self.samples.append(cpu)
        self.cpu_ns += cpu
        self.wall_ns += perf_counter_ns() - t0

    def start(self) -> None:
        for _ in range(CONTEXT):
            self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def ref_ns(self, first: int) -> float | None:
        """Median sample from ``CONTEXT`` before index ``first`` to the latest, or None if none."""
        window = self.samples[max(0, first - CONTEXT):]
        return float(statistics.median(window)) if window else None

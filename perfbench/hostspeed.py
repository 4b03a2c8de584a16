"""Host-speed correction: time measured against a fixed reference probe.

The benchmark's host is a shared virtual machine whose speed drifts by up to
~1.6x within a minute (other tenants load the same physical cores; there is
no steal time to see it by).  A fixed workload timed on it spreads by ~20%
between runs, which is close to every bound.  So each timed figure is also
reported at *reference speed*: before (and, for long stretches, during) the
work the benchmark runs :func:`probe`, a fixed ~20 ms mix of interpreted
Python and small numpy operations that never touches ``src/``, and scales the
measured wall time by ``PROBE_REF_S / probe time``.  A change to the program
moves the corrected figure exactly as much as the raw one; a slower host
moves the probe too and cancels out.

Two ways to apply it:

* :class:`HostClock` -- for single-threaded in-process work: a ``SIGALRM``
  timer runs the probe every ``interval`` seconds between bytecodes of the
  main thread, and :meth:`HostClock.now` returns work seconds at reference
  speed with the probes' own time left out.
* :func:`host_scale` before and after a stretch of work that runs in other
  processes (the probe then runs while they are idle, once on each CPU).
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

#: The probe's median time on the host the bounds were set on (Intel Xeon,
#: 2 vCPUs, Python 3.11, numpy 2.4).  Only ratios matter; this keeps the
#: corrected figures close to seconds on that host.
PROBE_REF_S = 0.020

_ROUNDS = 700
_BASE = (np.arange(64 * 8, dtype=np.float64).reshape(64, 8) % 17) / 17.0


def _kernel() -> float:
    """Python control flow, dicts and small numpy ops, as the simulator has."""
    counts: dict = {}
    rows = _BASE
    total = 0.0
    for step in range(_ROUNDS):
        loads = rows.sum(axis=1)
        hot = int(np.argmax(loads))
        counts[hot] = counts.get(hot, 0) + 1
        order = np.argsort(loads, kind="stable")
        rows = rows[order] * 0.999 + np.minimum(rows, 0.5)[::-1] * 0.001
        for key in range(8):
            total += counts.get((key + step) % 64, 0) * 1e-9
        total += float(loads.max() - loads.min())
    return total


def probe() -> float:
    """Seconds one run of the fixed reference kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def host_scale(samples: int = 3) -> float:
    """Mean over the usable CPUs of ``PROBE_REF_S / probe time`` (>1: fast).

    The two vCPUs of the benchmark host change speed independently, each
    within a second, so work spread over several processes is compared with
    every CPU: the calling thread is pinned to each in turn for the median
    of ``samples`` probes, then given its whole affinity mask back.
    """
    cpus = os.sched_getaffinity(0)
    scales = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            scales.append(PROBE_REF_S / statistics.median(
                probe() for _ in range(samples)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(scales)


class WallClock:
    """Plain wall seconds with :class:`HostClock`'s interface (traced runs)."""

    probes = 0
    probe_s = 0.0

    def __enter__(self) -> "WallClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        pass

    def now(self) -> float:
        return time.perf_counter() - self._start


class HostClock:
    """Work seconds at reference speed for the main thread's own work.

    Between two probes the wall time is scaled by the first probe's
    ``PROBE_REF_S / probe time``; the probes' time is left out.  Use it only
    around single-threaded work in the main thread: the handler runs between
    its bytecodes, and :meth:`now` blocks the signal while it reads.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.probes = 0
        self.probe_s = 0.0
        self._base = 0.0
        self._mark = 0.0
        self._scale = 1.0
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._rescale()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _rescale(self) -> None:
        seconds = probe()
        self._scale = PROBE_REF_S / seconds
        self.probes += 1
        self.probe_s += seconds
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        self._base += (time.perf_counter() - self._mark) * self._scale
        self._rescale()

    def now(self) -> float:
        """Reference-speed work seconds since the clock started."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._base + (time.perf_counter() - self._mark) * self._scale
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

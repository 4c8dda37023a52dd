"""Host-speed references used to normalise the benchmark's times.

On a shared host the speed of the same work drifts by tens of percent
within seconds. Single samples of two pieces of work track each other
poorly, but their sums over seconds do, provided the two are alike
(measured on a 2-vCPU VM with CPython 3.11):

- in-process work: timing ``_kernel`` below every 50 ms next to the
  deep-sample jobs, the total job time of 5-second blocks varied with a 9.9%
  coefficient of variation, its ratio to the kernel's mean time in the block
  by 2.2%;
- process work: next to ``nlbox verify`` processes, block means varied by
  7.4%, their ratio to a bare interpreter start by 3.1%, while their ratio
  to the in-process kernel varied by 9.1%.

So each phase of a run carries one reference. ``Sampler`` times the kernel
every ``INTERVAL_S`` of wall time (on SIGALRM, in the main thread) and scales
by ``REFERENCE_S / mean(kernel times)``; ``SpawnReference`` starts a bare
interpreter after every job and scales by ``SPAWN_REFERENCE_S / mean(start
times)``. A job's reported time is its wall time, less samples taken inside
it, times the scale: the time it would take on a host where the reference
takes exactly its constant. Neither reference calls nlbox. The kernel runs
in nlbox's interpreter, but with the garbage collector off, so the size of
nlbox's heap does not slow it; ``Sampler.pause`` stops the sampling while
traced jobs run, so no sample lands in a layer's traced time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import sys
import time

# typical durations on the host the benchmark was calibrated on; fixed
# constants so numbers stay comparable across commits
REFERENCE_S = 0.001
SPAWN_REFERENCE_S = 0.075
KERNEL_N = 800
INTERVAL_S = 0.05


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _kernel(n: int) -> int:
    """Interpreter-bound work resembling the engine's: small objects,
    dicts, tuples, bit operations and calls."""
    acc = 0
    table: dict = {}
    for i in range(n):
        cell = _Cell(i & 15, i >> 4)
        key = (cell.a, cell.b & 3)
        view = {"x": cell.a, "y": key}
        table[key] = table.get(key, 0) + len(view)
        acc ^= (cell.a & cell.b) ^ table[key]
    return acc


class Sampler:
    """Reference for in-process work: the kernel, sampled periodically."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._previous = None
        self._left = INTERVAL_S

    def _sample(self, signum, frame):
        # the kernel makes no reference cycles; with the collector off, a
        # collection cannot walk nlbox's objects inside the sample
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel(KERNEL_N)
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self):
        """Stop sampling, keeping the time left to the next sample."""
        self._left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or INTERVAL_S

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, self._left, INTERVAL_S)

    def after_job(self):
        pass

    def scale(self) -> float:
        """Factor from this host's current speed to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.costs) if self.costs else 1.0

    def busy(self, t0: float, t1: float) -> float:
        """Wall seconds between ``t0`` and ``t1`` not spent sampling."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.costs[lo:hi])


class SpawnReference:
    """Reference for process work: a bare interpreter start after each job.
    ``spawn_s`` runs a command and returns its wall seconds."""

    def __init__(self, spawn_s):
        self._spawn_s = spawn_s
        self.costs: list[float] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def pause(self):
        pass

    def resume(self):
        pass

    def after_job(self):
        self.costs.append(self._spawn_s([sys.executable, "-c", "pass"]))

    def scale(self) -> float:
        return (SPAWN_REFERENCE_S / statistics.fmean(self.costs)
                if self.costs else 1.0)

    @staticmethod
    def busy(t0: float, t1: float) -> float:
        return t1 - t0

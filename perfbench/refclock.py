"""Phase timing against a fixed reference probe, for a host whose speed drifts.

On a shared virtual machine the same code runs at speeds that differ by
20-30% from one second to the next and from one quarter of an hour to the
next, whatever the program does.  Wall seconds then track the host, not the
code.  A `ReferenceClock` runs a short fixed probe (a pure-Python loop and
small SVDs, the two kinds of work the solver does) from a SIGALRM handler
every `interval_s` while the program runs, so probe and program share the
CPU's speed of the moment.  A phase's reference time sums each slice of its
own wall time between two probes, scaled by the probe's reference duration
over its duration around that slice; the probes' own time is left out of
both wall and reference time.  The probe calls numpy only, never blocksdp,
so a change to the program moves reference time as it moves wall time.

Python runs the handler between bytecodes, so a probe waits for a long C call
(one dense eigensolve) to return; the slice it ends is scaled by the probes
on either side of it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Probe duration on the reference machine (2-vCPU KVM guest of an Intel Xeon,
# Sapphire Rapids, 1 BLAS thread): a reference second is a wall second at
# the speed at which the probe takes this long.
REF_PROBE_S = 2.5e-4
# Each probe's duration is replaced by the median over this many probes on
# either side of it, which damps one-off interrupts but follows a change of
# speed within a tenth of a second.
SMOOTH = 2


class ReferenceClock:
    """Times phases in wall seconds and in reference seconds.

    Use as a context manager around the timed code; `now()` marks phase
    bounds, and `wall()`/`reference()` convert a pair of marks once the
    clock has stopped.
    """

    now = staticmethod(perf_counter)

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self._small = np.random.default_rng(0).standard_normal((8, 1))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._scale = None

    def probe(self, *_):
        t0 = perf_counter()
        acc = 0
        for i in range(800):
            acc += i * 3 % 7
        for _ in range(12):
            np.linalg.svd(self._small, full_matrices=False)
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        self._scale = None
        return False

    def wall(self, t_a: float, t_b: float) -> float:
        """Wall seconds from mark t_a to mark t_b, less the probes between them."""
        lo = bisect.bisect_left(self.starts, t_a)
        hi = bisect.bisect_right(self.ends, t_b)
        return (t_b - t_a) - sum(self.ends[j] - self.starts[j] for j in range(lo, hi))

    def scales(self) -> list[float]:
        """Reference over smoothed observed duration, per probe."""
        if self._scale is None:
            took = [e - s for s, e in zip(self.starts, self.ends)]
            self._scale = [REF_PROBE_S / statistics.median(took[max(0, j - SMOOTH):j + SMOOTH + 1])
                           for j in range(len(took))]
        return self._scale

    def reference(self, t_a: float, t_b: float) -> float:
        """Reference seconds from mark t_a to mark t_b.

        The slice between two consecutive probes is scaled by the mean of
        their scales; the clock probes on entry and exit, so every mark taken
        inside it has a probe on either side.
        """
        scale = self.scales()
        total = 0.0
        edge = t_a
        for j in range(bisect.bisect_right(self.ends, t_a), len(self.starts)):
            stop = min(self.starts[j], t_b)
            if stop > edge:
                total += (stop - edge) * 0.5 * (scale[j - 1] + scale[j])
            if self.starts[j] >= t_b:
                break
            edge = self.ends[j]
        return total

"""Host-speed-corrected timing: a reference kernel sampled on a timer.

On a shared virtual machine the CPU's speed drifts by up to 1.8x for
seconds to tens of seconds at a time, with the process's CPU time equal
to its wall time, so a 20 s run's wall time measures the neighbours as
much as the program.  :class:`HostClock` tells the two apart.  While it
is active, a ``SIGALRM`` timer interrupts the process every
:data:`PERIOD_S` and runs :func:`reference_kernel`, small numpy
operations driven from Python (the program's own mix), which never
touches the program.  The kernel's duration there, against
its nominal duration :data:`NOMINAL_MS`, is the host's slowdown at that
moment.

:meth:`HostClock.nominal` converts a wall interval into seconds at the
nominal host speed: the interval, less the sampler's own time inside
it, with each stretch between two samples divided by the slowdown the
nearby samples show (their median, over :data:`SMOOTH_S` on each side,
so one sample disturbed by an interrupt does not count).  A program that
gets faster reads faster; a host that gets slower does not.

The handler runs only between bytecodes of the main thread, never inside
a C call, and starts no thread or process.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
#: Nominal duration of one :func:`reference_kernel` call: its median on
#: the 2-vCPU x86 virtual machine the benchmark's bounds were set on.
NOMINAL_MS = 0.6
SMOOTH_S = 0.06

_rng = np.random.default_rng(20201)
_VECTOR = _rng.random(400)
_FLOATS = _rng.random(1000).tolist()


def reference_kernel() -> float:
    """One fixed unit of work; returns a checksum so none of it is dead.

    Small-array numpy calls driven from a Python loop, plus some plain
    interpreted arithmetic: of the kernels tried (interpreted loops,
    small-array calls, 20k-element vector passes, 64x64 matmuls), the
    small-array calls tracked both the verifier's batch path and the
    capture rig's simulation most closely through the host's drift.
    """
    total = 0.0
    for x in _FLOATS:
        total += x * x
    for _ in range(100):
        total += float(np.diff(_VECTOR.cumsum())[-1])
    return total


class HostClock:
    """Context manager sampling the host's speed while it is active."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._slowdown: list[float] | None = None
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._sample(None, None)  # a sample at the very start
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # and one at the very end

    @property
    def samples(self) -> int:
        return len(self.starts)

    def slowdowns(self) -> list[float]:
        """Per sample: the median kernel time within :data:`SMOOTH_S`
        of it, over :data:`NOMINAL_MS`."""
        if self._slowdown is None or len(self._slowdown) != len(self.starts):
            durations = [e - s for s, e in zip(self.starts, self.ends)]
            out = []
            for s in self.starts:
                lo = bisect.bisect_left(self.starts, s - SMOOTH_S)
                hi = bisect.bisect_right(self.starts, s + SMOOTH_S)
                out.append(statistics.median(durations[lo:hi]) * 1e3 / NOMINAL_MS)
            self._slowdown = out
        return self._slowdown

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdowns())

    def nominal(self, a: float, b: float) -> float:
        """Seconds at nominal host speed the program ran within ``[a, b]``.

        The sampler's own stretches are cut out; each stretch of program
        time between two samples counts at the mean slowdown of those two.
        """
        if not self.starts:
            raise RuntimeError("the host clock took no sample")
        slow, n = self.slowdowns(), len(self.starts)
        total = 0.0
        # Gap k runs from the end of sample k-1 to the start of sample k.
        for k in range(max(bisect.bisect_right(self.starts, a) - 1, 0), n + 1):
            gap_lo = self.ends[k - 1] if k else float("-inf")
            gap_hi = self.starts[k] if k < n else float("inf")
            if gap_lo >= b:
                break
            overlap = min(gap_hi, b) - max(gap_lo, a)
            if overlap > 0:
                total += overlap * 2 / (slow[max(k - 1, 0)] + slow[min(k, n - 1)])
        return total

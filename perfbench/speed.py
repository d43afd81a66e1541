"""Machine-speed normalization of CPU times.

On a shared host the same computation can take twice the CPU time while
other tenants load the physical core, and the share of slow time drifts over
seconds and minutes.  A ``SIGALRM`` handler therefore runs a fixed probe
every ``INTERVAL_S`` and records the CPU time it took.  (A wall-clock timer:
while a process-wide CPU timer such as ``ITIMER_PROF`` is armed, Linux reads
the process CPU clock at scheduler-tick resolution, 4 ms here.)  A
case's CPU time, less the handler's own, multiplied by the mean of
``REF_NS / probe`` over the probes taken during it is its CPU time at the
reference speed: the speed at which one probe takes ``REF_NS``, about the
typical speed of the machine the reference figures in README.md come from.

The probe must read the machine, not the program's state.  The handler
therefore switches the cyclic garbage collector off, so that the probe's
allocations never start a collection over the program's heap, and runs the
probe twice, timing only the second pass: the first brings the probe's code
and data back into the caches that the program's working set has evicted.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.008
REF_NS = 100_000

_COEFFS = [Fraction(k + 1, 3) for k in range(8)]
_ZERO = Fraction(0)


def _probe_work() -> None:
    """Work of the program's kind: Fraction sums under tuple keys, keyed sort."""
    terms: dict = {}
    for k in range(24):
        key = (("z", k & 3), ("y", k))
        terms[key] = terms.get(key, _ZERO) + _COEFFS[k & 7]
    sorted(terms.items(), key=lambda t: (-len(t[0]), t[0]))


class SpeedProbe:
    """While started, samples the timed probe pass in nanoseconds and adds
    the handler's whole CPU time to ``spent_ns``."""

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0

    def _sample(self, signum, frame) -> None:
        # CPU clock: a probe the host preempts must not read as a slow one
        start = time.thread_time_ns()
        collecting = gc.isenabled()
        gc.disable()
        _probe_work()  # warm-up pass, not timed
        mid = time.thread_time_ns()
        _probe_work()
        end = time.thread_time_ns()
        if collecting:
            gc.enable()
        self.samples.append(end - mid)
        self.spent_ns += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def speed(samples: list[int]) -> float:
    """Mean of REF_NS / probe: 1.0 at the reference speed, 0.5 at half of it."""
    return statistics.fmean(REF_NS / s for s in samples)

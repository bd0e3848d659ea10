"""A machine-speed probe that runs alongside the measured program.

On a shared host the speed of a core moves by more than half within seconds
(another tenant on the sibling hyperthread, cache and frequency changes),
and CPU time moves with it. ``SpeedProbe`` samples that speed in the measuring
process itself: a wall-clock interval timer interrupts the program every
``INTERVAL_S`` and times a fixed pure-Python kernel. Each measured span is
then rescaled by ``REFERENCE_S`` over the kernel times sampled during it, so
it reads as a time on a core where the kernel takes ``REFERENCE_S`` (its
time on an unshared core of the host the bounds were set on). The probe's
own time is subtracted from every span it interrupts.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
from array import array
from time import perf_counter

INTERVAL_S = 0.01
MIN_SAMPLES = 9
REFERENCE_S = 100e-6

_PERM = tuple((7 * x + 3) % 64 for x in range(64))


def kernel() -> None:
    """Half bytecode-bound tuple building, half calls into small C builtins.

    Either half alone tracked the program's slowdowns less well than the mix.
    The results are discarded: the calls are the work.
    """
    v = tuple(range(64))
    for _ in range(10):
        v = tuple(_PERM[x] for x in v)
    for _ in range(15):
        v = tuple(sorted(set(v), reverse=True))
        min(v), max(v), v.index(63)


class SpeedProbe:
    """Kernel timings sampled on a timer; rescales spans to the reference speed."""

    def __init__(self):
        self.at = array("d")        # sample end times
        self.took = array("d")      # kernel duration of each sample
        self.spent = 0.0            # total time spent inside the handler
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # A collection started by the kernel's allocations would scan the
        # program's heap and time that instead of the core; it runs later,
        # in the program's own time.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def settled(self, t: float) -> bool:
        """Whether enough samples follow ``t`` for ``factor`` of a span ending there."""
        return len(self.at) - bisect.bisect_right(self.at, t) >= (MIN_SAMPLES + 1) // 2

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time sampled in [t0, t1].

        A span holding fewer than ``MIN_SAMPLES`` samples uses that many
        around it, since one sample is as noisy as a short operation.
        """
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < MIN_SAMPLES:
            pad = (MIN_SAMPLES - (hi - lo) + 1) // 2
            lo, hi = max(0, lo - pad), min(len(self.at), hi + pad)
        if hi <= lo:
            return 1.0
        return REFERENCE_S / statistics.median(self.took[lo:hi])

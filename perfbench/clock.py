"""Call times rescaled to a fixed machine speed.

On a shared host the speed of the same pure-Python work drifts by tens of
percent within seconds, far more than the changes the benchmark must
resolve.  While a pass runs, a timer signal interrupts it every INTERVAL_S
and times a short spin of fixed pure-Python work.  A call's work time is
its wall time minus the spins inside it, and a stretch of calls is rescaled
by the mean speed the spins measured over it, REFERENCE_S / spin seconds.
The result is in seconds at the speed where one spin takes REFERENCE_S.
The spin touches no singulus code, so no change to the package moves it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

SPIN_ITERATIONS = 10_000
# about the median spin time on a 2-core Xeon VM under Python 3.11
REFERENCE_S = 0.002
INTERVAL_S = 0.05
# a stretch of calls closes once this many spins fall inside it
STRETCH_SPINS = 5


def spin_seconds() -> float:
    """Time a fixed loop of integer arithmetic and dict stores."""
    start = perf_counter()
    table = {}
    x = 1
    for i in range(SPIN_ITERATIONS):
        x = x * 48271 % 2147483647
        table[x & 1023] = i
    return perf_counter() - start


def speed(spins) -> float:
    return statistics.fmean(REFERENCE_S / s for s in spins)


class ScaledClock:
    """Times calls under a spin timer and keeps their raw and rescaled seconds.

    Use as a context manager: the timer runs only inside the block.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.spins: list[float] = []
        self.spun_in_calls = 0.0
        self._spun = 0.0
        self._stretch_start = 0
        self._stretch_spins = 0
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.flush()

    def _on_timer(self, signum, frame):
        s = spin_seconds()
        self.spins.append(s)
        self._spun += s

    def time(self, call):
        """Run call(); return its outcome or the exception it raised."""
        spun = self._spun
        start = perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # the caller records it as a failed operation
            outcome = exc
        wall = perf_counter() - start
        inside = self._spun - spun
        self.spun_in_calls += inside
        self.raw.append(wall - inside)
        if len(self.spins) - self._stretch_spins >= STRETCH_SPINS:
            self.flush()
        return outcome

    def flush(self):
        """Rescale the open stretch by the spins taken since it opened."""
        if self._stretch_start == len(self.raw):
            return
        while len(self.spins) - self._stretch_spins < STRETCH_SPINS:
            self.spins.append(spin_seconds())  # short stretches: sample right after
        factor = speed(self.spins[self._stretch_spins :])
        self.scaled.extend(s * factor for s in self.raw[self._stretch_start :])
        self._stretch_start = len(self.raw)
        self._stretch_spins = len(self.spins)

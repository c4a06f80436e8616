"""A clock in reference seconds, steady against the host's speed changes.

On a shared host the CPU this benchmark runs on switches between a fast
and a slow state, up to 2x apart, every few seconds, and how long it
stays in each drifts over minutes.  Wall times of the same code then
spread by 10-50% from run to run, often more than the benchmark's bounds.

``ReferenceClock`` corrects for that.  While it runs, a SIGALRM every
``INTERVAL`` seconds times a fixed probe (``PROBE_TERMS`` additions of
``fractions.Fraction``, standard library only, nothing of quiveralg),
run once untimed first so that the cache state the program left behind
does not change the timed run.  Each slice of wall time between two
probes is scaled by ``REFERENCE_PROBE_S`` over the median of the last
``WINDOW`` probe times before it, so it counts the seconds the slice would have
taken at the speed where the probe takes ``REFERENCE_PROBE_S`` (the
host's fast state).  Time spent in the probes themselves is left out.
A program that does less work reads fewer reference seconds in
proportion, as with a wall clock.

Fraction arithmetic (Python calls, small-object allocation, gcd) slows
down in the slow state by about the same factor as both the GF(p) and
the Q code paths of quiveralg: over 16 repeats each of eight ops from
the corpus, construct and rational workloads, the coefficient of
variation of their times fell from 0.10-0.21 (wall) to 0.03-0.09
(reference seconds).  Tight integer loops and dict or list lookups slow
down less and under-correct.

Two limits.  Python runs the signal handler between bytecodes of the
main thread, so a long call into C (a BLAS product, say) is one slice,
scaled by the speed measured right after it.  And the probe cannot tell
the host's load from load the program puts on the other core (a BLAS
thread, say): if such load slows the core the program runs on, the probe
counts it as the host's slowness; ``process.cpu_s`` of the traced run
shows it.
"""

from __future__ import annotations

import collections
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.01
WINDOW = 5
PROBE_TERMS = 24
# median time of the warm probe in the fast state of a 2-core Xeon
# microVM (Python 3.11.7): reference seconds read about as wall seconds
# would there
REFERENCE_PROBE_S = 5.3e-5


def probe() -> Fraction:
    total = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        total += Fraction(i, i + 3)
    return total


class ReferenceClock:
    """``start()``, then ``now()`` reads reference seconds since start."""

    def __init__(self):
        self._recent = collections.deque(maxlen=WINDOW)
        # (reference seconds at the last probe, perf_counter at its end,
        # current scale); replaced whole so that now() reads it at once
        self._state = (0.0, 0.0, 1.0)
        self._old_handler = None
        self.probes = 0
        self.probe_s = 0.0

    def _probe(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe()             # warm-up, so that the program's cache state
        t_warm = perf_counter()
        probe()             # does not change the timed run
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self._recent.append(t1 - t_warm)
        self.probes += 1
        self.probe_s += t1 - t0
        return t0, t1, REFERENCE_PROBE_S / statistics.median(self._recent)

    def _tick(self, signum, frame):
        # the slice just ended keeps the scale now() has been using for
        # it, so that readings never go back
        ref, last, scale = self._state
        t0, t1, new_scale = self._probe()
        self._state = (ref + (t0 - last) * scale, t1, new_scale)

    def start(self) -> "ReferenceClock":
        for _ in range(WINDOW):
            *_, scale = self._probe()
        self._state = (0.0, perf_counter(), scale)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def now(self) -> float:
        ref, last, scale = self._state
        return ref + (perf_counter() - last) * scale

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return self.now()

"""Host speed probe: a fixed pure-Python workload that shares no code with md3lie.

On a shared machine the CPU speed a process gets drifts by up to 1.7x over
seconds to minutes, and whole runs can fall inside a slow spell.  A
``Sampler`` runs the probe from a timer signal every ``PROBE_EVERY_S``
seconds, also in the middle of a job, and ``scale`` turns a job's latency
into seconds on a host where the probe takes ``REFERENCE_S``.  The probe
does the same kinds of work as the program (fraction-free integer
elimination, ``Fraction`` arithmetic, JSON) but runs none of its code, so a
change to the program moves the scaled timings in full.
"""

from __future__ import annotations

import bisect
import json
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.001
PROBE_EVERY_S = 0.2
_N = 20
_MATRIX = [[(i * 7 + j * 13 + i * j) % 17 - 8 + 20 * (i == j) for j in range(_N)]
           for i in range(_N)]


def _work() -> int:
    a = [row[:] for row in _MATRIX]
    denom = 1
    for k in range(_N - 1):
        pv = a[k][k]
        for i in range(k + 1, _N):
            h = a[i][k]
            for j in range(k + 1, _N):
                a[i][j] = (pv * a[i][j] - h * a[k][j]) // denom
        denom = pv
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i % 5 - 2, i % 7 + 1)
    doc = {"rows": [[str(Fraction(x, 3)) for x in row] for row in a[:4]], "s": str(s)}
    return len(json.loads(json.dumps(doc))["rows"])


def probe() -> float:
    """Seconds the fixed workload takes now: the best of three tries."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Probes the host every PROBE_EVERY_S seconds from a SIGALRM handler.

    Inside ``with sampler:`` the handler runs between bytecodes of the main
    thread, so probes land inside long jobs too; entering and leaving take
    one probe each.  Each probe's start, end and result are kept, so
    ``busy`` can take the probes' own time out of a measured span."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self._previous = None
        self._probing = False

    def sample(self, signum=None, frame=None):
        if self._probing:
            return
        self._probing = True
        t0 = time.perf_counter()
        speed = probe()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.speeds.append(speed)
        self._probing = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy(self, start: float, end: float) -> float:
        """Time the probes took within [start, end]."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scale(self, start: float, end: float, seconds: float) -> float:
        """seconds, measured over [start, end], at the reference host speed.

        The host speed is the mean of the probes that start within one
        probe interval of the span."""
        lo = bisect.bisect_left(self.starts, start - PROBE_EVERY_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_EVERY_S)
        if lo == hi:  # no probe that close: take the nearest one
            lo = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
            hi = lo + 1
        speed = sum(self.speeds[lo:hi]) / (hi - lo)
        return seconds * REFERENCE_S / speed

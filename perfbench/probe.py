"""Machine-speed sampling: every time the benchmark reports is scaled by it.

On a shared host the speed of identical pure-Python work drifts by 20%
and more within seconds, in CPU time as much as in wall time, so raw
seconds from two runs are not comparable.  While a pass or a set-up
runs, a SIGALRM handler times a fixed tiny computation every
INTERVAL_S: exact elimination over `Fraction`, the same kind of work as
disemi's hot loops.  An interval [t0, t1] is then reported in reference
seconds,

    scaled = (t1 - t0 - handler time inside it) * REFERENCE_S / mean(sample)

with the mean taken over the fastest 80% of the samples taken inside the
interval (of the MIN_SAMPLES nearest ones for a short interval): the
time the interval would take on a machine where the sample computation
takes REFERENCE_S.  A CLI child samples itself the
same way and reports its summary.

The samples are the benchmark's own code, but they run inside the
process that does the work and share its heap, garbage collector and
CPU caches.  A change to disemi that grows its working set may slow the
samples as well and so hide part of its own slowdown; run.py prints the
measured seconds of every pass next to the scaled ones, so that the
scale can be checked against real time.
"""

import random
import signal
import statistics
import time
from fractions import Fraction

# About the sample computation's time on the 2-core x86 container the
# benchmark was written on; it only fixes the scale of reported seconds.
REFERENCE_S = 0.0004
INTERVAL_S = 0.01
MIN_SAMPLES = 8
# Share of the slowest samples left out of the mean: a sample that a timer
# interrupt or a preemption lengthened says nothing about the work around
# it.  Over eight identical passes this cut the spread of the scaled pass
# time from 3.8% to 0.7%.
TRIM = 0.2

_rnd = random.Random(20240601)
_MATRIX = [[_rnd.randint(-9, 9) for _ in range(6)] for _ in range(5)]


def _rank(a):
    rows = [[Fraction(x) for x in r] for r in a]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Sampler:
    """Context manager that samples machine speed while it is open.

    Uses SIGALRM and ITIMER_REAL, so only one may be open at a time, in
    the main thread.
    """

    def __init__(self):
        self.samples = []       # (start, duration)
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _rank(_MATRIX)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def summary(self, t0=float("-inf"), t1=float("inf")):
        """{"mean": trimmed mean sample time, "spent": sampling time} for
        the samples inside [t0, t1], or the MIN_SAMPLES nearest ones for
        the mean when there are fewer inside."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        spent = sum(inside)
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda sd: abs(sd[0] - mid))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        kept = sorted(inside)[:max(1, int(len(inside) * (1 - TRIM)))]
        return {"mean": statistics.fmean(kept) if kept else REFERENCE_S,
                "spent": spent}


def factor(summary):
    """Reference seconds per measured second."""
    return REFERENCE_S / summary["mean"]


def reference_seconds(seconds, summary):
    """A measured interval in reference seconds, sampling time taken out."""
    return (seconds - summary["spent"]) * factor(summary)

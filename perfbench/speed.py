"""Scaling op times to a reference machine speed.

The benchmark shares a host whose speed swings by 30-50 % over stretches
of seconds to minutes, in CPU time as much as in wall time, so raw times of
the same code spread between runs by more than any useful bound.  The
measured run therefore times a fixed probe before every op and after the
last: pure-Python work of the same kind as the package's (integer dict
products, Fraction sums) that never calls padicint.  An op's time is scaled
by REFERENCE_S over the median probe time around it, which gives the time
the op would take at the speed where the probe takes REFERENCE_S.  A change
to padicint moves the scaled times as it moves the raw ones; a change of
the machine's speed moves the probe with the op and cancels.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# about the probe's fastest time on a 2-core Intel Xeon VM at 2.1 GHz under
# Python 3.11.7; scaled times read as raw times on that machine at its best
REFERENCE_S = 0.28e-3

# probes on each side of an op that set its speed factor
WINDOW = 5


def probe() -> Fraction:
    """A fixed piece of work: a product of two 40-term integer dict
    polynomials and a sum of 59 fractions."""
    a = {i: (i * 7919) % 101 - 50 for i in range(40)}
    b = {i: (i * 104729) % 103 - 51 for i in range(40)}
    c: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            c[i + j] = c.get(i + j, 0) + x * y
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(c.get(k, 1), k + 1)
    return total


def timed_probe() -> float:
    """Seconds one probe takes."""
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def factors(probe_s: list) -> list:
    """For n ops bracketed by n + 1 probe times (probe i runs just before
    op i), the factor that scales op i, and anything run right after it,
    to the reference speed."""
    n = len(probe_s) - 1
    return [REFERENCE_S / statistics.median(probe_s[max(0, i - WINDOW) : i + WINDOW + 2]) for i in range(n)]

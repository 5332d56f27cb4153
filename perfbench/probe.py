"""Speed probe: scales wall times to a reference speed of the machine.

On a shared VM the speed of one core drifts, in plateaus of seconds to
minutes, by up to a factor of two (a fixed pure-Python loop takes between
about 8 and 15 ms).  That drift is larger than any gate could allow, so every
timed operation is bracketed by a probe, a fixed pure-Python loop timed on
the same core right before and right after the operation, and its wall time
is reported as

    scaled = wall * REF_S / mean(probe before, probe after)

that is, the time the operation would take while the probe takes REF_S.
A change to curvkit moves `wall` and leaves the probe alone, so it moves the
scaled time by the same factor.
"""

from __future__ import annotations

import os
import time

REF_S = 0.0125          # the probe's time on the reference machine (see README)
_LOOP = 100_000
_REPEATS = 3


def pin() -> int:
    """Pin this process (and the processes it starts) to one core, so that
    the probes measure the core the program runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Seconds of a fixed pure-Python loop: the fastest of a few repeats."""
    best = float("inf")
    for _ in range(_REPEATS):
        t = time.perf_counter()
        s = 0
        for i in range(_LOOP):
            s += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


class Clock:
    """Times operations in turn; the probe after one operation is the probe
    before the next."""

    def __init__(self) -> None:
        self.last = probe()

    def scale(self, wall: float) -> float:
        """The wall time of the operation that just ended, scaled."""
        before, self.last = self.last, probe()
        return wall * REF_S / ((before + self.last) / 2)

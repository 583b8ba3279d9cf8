"""How fast the host ran, sampled while the program runs.

On a shared virtual machine, such as the 2-CPU Intel Xeon host the
benchmark was built on, the CPU runs the same code either at full speed
or up to about twice as slow, switching within fractions of a second,
and the share of slow time drifts over minutes.  So a whole run can fall
in a slow stretch, and the raw times of bit-identical passes differ by
a third from run to run.

While a pass runs, a `SpeedProbe` interrupts it every PERIOD_S seconds
(SIGALRM) and times one call of `reference_loop`, a fixed pure-Python
loop that shares no code with the program.  The loop's mean time over
the pass, or over one cell of it, says how slow the host ran then, and
`at_reference_speed` rescales a time measured then to the speed at
which the loop takes REFERENCE_LOOP_S.  The probe's own time is kept
out of the measured times through `clock`.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.005
# About the loop's fastest time inside the probe on the 2-CPU Intel Xeon
# host the benchmark was built on.  It only sets the scale of the figures.
REFERENCE_LOOP_S = 26e-6


def reference_loop():
    acc = 0.0
    for i in range(300):
        acc += math.sqrt(i * 0.5 + 1.0)
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (clock() at the tick, reference_loop time) per tick
        self.spent = 0.0  # time inside the probe's handler

    def clock(self):
        """perf_counter with the probe's own time taken out."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start - self.spent, time.perf_counter() - start))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def loop_s(self, start=-math.inf, end=math.inf):
        """Mean reference_loop time over the ticks between `start` and `end`
        on `clock`, or over all ticks if no tick fell between them."""
        inside = [loop for t, loop in self.samples if start <= t < end]
        return statistics.fmean(inside or [loop for _, loop in self.samples])


def at_reference_speed(seconds, loop_s):
    """`seconds` measured while the loop took `loop_s` on average, rescaled
    to the speed at which it takes REFERENCE_LOOP_S."""
    return seconds * REFERENCE_LOOP_S / loop_s
